package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"strudel/internal/workload"
)

// Words for edited titles and names. The benchmark writes source text
// the way a user edits a file; the program only ever sees that text.
var (
	titleWords = []string{"adaptive", "views", "warehouse", "graphs", "queries",
		"sites", "maintenance", "incremental", "schemas", "wrappers", "mediation",
		"templates", "caching", "semistructured", "integration", "evaluation"}
	firstNames = []string{"Ada", "Bo", "Cy", "Dana", "Eli", "Flo", "Gus", "Hal", "Ivy", "Jo"}
	lastNames  = []string{"Adams", "Baker", "Chen", "Diaz", "Evans", "Fox", "Gray", "Hill", "Ito", "Jones"}
)

func words(rng *rand.Rand, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = titleWords[rng.Intn(len(titleWords))]
	}
	s := strings.Join(parts, " ")
	return strings.ToUpper(s[:1]) + s[1:]
}

func name(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// change draws values until one differs from old, so every scripted
// edit really changes the source.
func change(old string, gen func() string) string {
	v := gen()
	for v == old {
		v = gen()
	}
	return v
}

// deck deals edit kinds from a fixed multiset, reshuffled by the
// seeded generator each time it runs out, so every run edits with the
// same mix of kinds and only their order and targets depend on the
// seed.
type deck struct {
	kinds []string
	left  []string
}

func (d *deck) deal(r *rand.Rand) string {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.kinds...)
		r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	k := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return k
}

// setField replaces the value of one "  field = ..." line of a record.
func setField(record, field, value string) string {
	lines := strings.Split(record, "\n")
	prefix := "  " + field + " = "
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			lines[i] = prefix + value + ","
		}
	}
	return strings.Join(lines, "\n")
}

func fieldOf(record, field string) string {
	prefix := "  " + field + " = "
	for _, l := range strings.Split(record, "\n") {
		if v, ok := strings.CutPrefix(l, prefix); ok {
			return strings.TrimSuffix(v, ",")
		}
	}
	return ""
}

// bibSource is a BibTeX file the benchmark edits between refreshes.
// It starts as workload.BibliographyBibTeX(n, seed); every edit is
// drawn from the seeded script, so a seed fixes every text the
// program sees.
type bibSource struct {
	mu      sync.Mutex
	entries []string
	text    string
	next    int      // number of the next added entry's key
	spare   []string // entries added by the script, renamed on use
	rng     *rand.Rand
	kinds   deck
}

func splitBib(text string) []string {
	var out []string
	for _, e := range strings.Split(text, "\n\n") {
		if strings.TrimSpace(e) != "" {
			out = append(out, e)
		}
	}
	return out
}

func newBibSource(n int, seed int64) *bibSource {
	s := &bibSource{
		entries: splitBib(workload.BibliographyBibTeX(n, seed)),
		spare:   splitBib(workload.BibliographyBibTeX(n/4+1, seed+1)),
		next:    n,
		rng:     rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		kinds:   deck{kinds: []string{"title", "title", "title", "author", "author", "year", "add", "delete"}},
	}
	s.render()
	return s
}

func (s *bibSource) render() {
	s.text = strings.Join(s.entries, "\n\n") + "\n\n"
}

// fetch is the source's fetch function, registered with
// Builder.AddSourceFunc.
func (s *bibSource) fetch() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.text, nil
}

// edit applies the script's next edit and names its kind. Every edit
// changes the text: a title, an author list or a year of one entry,
// or one entry added or deleted.
func (s *bibSource) edit() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rng
	kind := s.kinds.deal(r)
	i := r.Intn(len(s.entries))
	switch kind {
	case "title", "author", "year":
		gen := map[string]func() string{
			"title":  func() string { return "{" + words(r, 3+r.Intn(3)) + "}" },
			"author": func() string { return "{" + name(r) + " and " + name(r) + "}" },
			"year":   func() string { return fmt.Sprint(1988 + r.Intn(10)) },
		}[kind]
		s.entries[i] = setField(s.entries[i], kind, change(fieldOf(s.entries[i], kind), gen))
	case "add":
		tpl := s.spare[r.Intn(len(s.spare))]
		open := strings.Index(tpl, "{")
		comma := strings.Index(tpl, ",")
		e := tpl[:open+1] + fmt.Sprintf("pub%d", s.next) + tpl[comma:]
		s.next++
		s.entries = append(s.entries, e)
	case "delete":
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
	}
	s.render()
	return kind
}

func (s *bibSource) snapshot() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.text
}

// orgSource holds the five organization sources; only the people CSV
// is edited.
type orgSource struct {
	mu     sync.Mutex
	org    *workload.OrgSources
	header string
	people []string
	text   string
	next   int
	depts  int
	rng    *rand.Rand
	kinds  deck
}

func newOrgSource(people, projects, depts int, seed int64) *orgSource {
	org := workload.Organization(people, projects, depts, seed)
	lines := strings.Split(strings.TrimSuffix(org.PeopleCSV, "\n"), "\n")
	s := &orgSource{org: org, header: lines[0], people: lines[1:], next: people,
		depts: depts, rng: rand.New(rand.NewSource(seed ^ 0x2545f491)),
		kinds: deck{kinds: []string{"name", "name", "name", "phone", "office", "dept", "add", "delete"}}}
	s.render()
	return s
}

func (s *orgSource) render() {
	s.text = s.header + "\n" + strings.Join(s.people, "\n") + "\n"
}

func (s *orgSource) fetchPeople() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.text, nil
}

func (s *orgSource) peopleSnapshot() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.text
}

// edit changes one row of the people CSV (name, phone, office or
// department), or adds or deletes a person.
func (s *orgSource) edit() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rng
	kind := s.kinds.deal(r)
	i := r.Intn(len(s.people))
	cols := strings.Split(s.people[i], ",")
	switch kind {
	case "name":
		cols[2] = change(cols[2], func() string { return fmt.Sprintf("%s %d", name(r), r.Intn(1000)) })
	case "phone":
		cols[3] = change(cols[3], func() string { return fmt.Sprintf("973-555-%04d", r.Intn(10000)) })
	case "office":
		cols[4] = change(cols[4], func() string { return fmt.Sprintf("C-%03d", r.Intn(1000)) })
	case "dept":
		cols[5] = change(cols[5], func() string { return fmt.Sprintf("dept%d", r.Intn(s.depts)) })
	case "add":
		id := fmt.Sprintf("p%d", s.next)
		s.next++
		cols = []string{id, id, name(r), "", fmt.Sprintf("C-%03d", r.Intn(1000)),
			fmt.Sprintf("dept%d", r.Intn(s.depts)), ""}
		s.people = append(s.people, strings.Join(cols, ","))
		s.render()
		return kind
	case "delete":
		s.people = append(s.people[:i], s.people[i+1:]...)
		s.render()
		return kind
	}
	s.people[i] = strings.Join(cols, ",")
	s.render()
	return kind
}
