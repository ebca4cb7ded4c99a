package main

import (
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"strudel/internal/sitegen"
	"strudel/internal/workload"
)

// respond stages a response on a client as if the handler had sent it.
func respond(c *client, status int, etag, body, inm string) {
	c.rec.reset()
	c.rec.status = status
	if etag != "" {
		c.rec.header.Set("ETag", etag)
	}
	c.rec.body = append(c.rec.body, body...)
	c.inm = inm
	c.decoded = nil
}

func TestCheckStaticCountsResponsesAgainstBuildsInFlight(t *testing.T) {
	h := &siteHistory{}
	h.add(0, &sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {HTML: "<p>v0</p>", ETag: `"i0"`},
		"a.html":     {HTML: "<p>a0</p>", ETag: `"a0"`},
	}})
	h.add(1, &sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {HTML: "<p>v1</p>", ETag: `"i1"`},
	}})
	c := newClient(nil, 1, 0, false)
	cases := []struct {
		name         string
		path         string
		status       int
		etag, body   string
		inm          string
		lo, hi       int64
		wantFailures int
	}{
		{"200 of the current build", "/", 200, `"i1"`, "<p>v1</p>", "", 1, 1, 0},
		{"200 of the build before the swap", "/", 200, `"i0"`, "<p>v0</p>", "", 0, 1, 0},
		{"200 of a build no longer in flight", "/", 200, `"i0"`, "<p>v0</p>", "", 1, 1, 1},
		{"200 with the right tag, wrong bytes", "/", 200, `"i1"`, "<p>v0</p>", "", 1, 1, 1},
		{"304 for the build's tag", "/", 304, `"i1"`, "", `"i1"`, 1, 1, 0},
		{"304 for a stale tag", "/", 304, `"i0"`, "", `"i0"`, 1, 1, 1},
		{"404 for a page the build dropped", "/a.html", 404, "", "", "", 1, 1, 0},
		{"404 for a page the build has", "/a.html", 404, "", "", "", 0, 0, 1},
		{"500", "/", 500, "", "", "", 0, 1, 1},
	}
	for _, tc := range cases {
		before := c.tally
		respond(c, tc.status, tc.etag, tc.body, tc.inm)
		c.tally.check(checkStatic(c, h, tc.path, tc.lo, tc.hi))
		if got := c.tally.failed - before.failed; got != tc.wantFailures {
			t.Errorf("%s: %d failures, want %d", tc.name, got, tc.wantFailures)
		}
		if c.tally.attempted != before.attempted+1 {
			t.Errorf("%s: not counted as attempted", tc.name)
		}
	}
}

func TestClickVerdict(t *testing.T) {
	cases := []struct {
		o    clickObs
		want string
		v    verdict
	}{
		{clickObs{status: 200, etag: `"x"`}, `"x"`, verdictOK},
		{clickObs{status: 200, etag: `"y"`}, `"x"`, verdictWrong},
		{clickObs{status: 304, inm: `"x"`}, `"x"`, verdictOK},
		{clickObs{status: 304, inm: `"y"`}, `"x"`, verdictWrong},
		{clickObs{status: 404}, "", verdictOK},       // page gone from the build
		{clickObs{status: 404}, `"x"`, verdictStale}, // page exists: stale link
		{clickObs{status: 200, etag: `"x"`}, "", verdictWrong},
		{clickObs{status: 500}, `"x"`, verdictWrong},
	}
	for i, tc := range cases {
		if got := clickVerdict(tc.o, tc.want); got != tc.v {
			t.Errorf("case %d: verdict %d, want %d", i, got, tc.v)
		}
	}
}

// TestStaleLinkAfterDynamicRefresh reproduces the stale-link 404 the
// click workload counts: after RebuildDynamic, a link taken from a page
// rendered before the refresh answers 404 although a scratch renderer
// of the same build has the page.
func TestStaleLinkAfterDynamicRefresh(t *testing.T) {
	src := newBibSource(30, 3)
	b, err := newBuilder(workload.BibliographySpec(), bibSources(src))
	if err != nil {
		t.Fatal(err)
	}
	st := newStack("homepage", b, "Roots", true, 4)
	if err := st.start(); err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c := newClient(st.handler, 1, 0, false)
	c.get("/")
	var year string
	for _, h := range hrefs(string(c.rec.body)) {
		if strings.Contains(h, "YearPage") {
			year = h
			break
		}
	}
	if year == "" {
		t.Fatal("root page links no year page")
	}
	c.get(year)
	var abstract string
	for _, h := range hrefs(string(c.rec.body)) {
		if strings.Contains(h, "AbstractPage") {
			abstract = h
			break
		}
	}
	if abstract == "" {
		t.Fatalf("%s links no abstract page", year)
	}
	// One title edit, as in serve's refresh loop.
	src.mu.Lock()
	src.entries[0] = setField(src.entries[0], "title", "{Edited title}")
	src.render()
	src.mu.Unlock()
	if cy := st.refresh(); cy.err != nil || !cy.changed {
		t.Fatalf("refresh: %+v", cy)
	}
	c.get(abstract)
	o := clickObs{path: abstract, status: c.rec.status}

	scratch, err := newBuilder(workload.BibliographySpec(),
		[]sourceDef{{"refs.bib", "bibtex", workload.StaticFetch(src.snapshot())}})
	if err != nil {
		t.Fatal(err)
	}
	rend, err := scratch.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rend.Dec.MaterializeAll("Roots"); err != nil {
		t.Fatal(err)
	}
	want, err := renderTag(rend, abstract)
	if err != nil {
		t.Fatal(err)
	}
	if want == "" {
		t.Fatalf("scratch build has no %s", abstract)
	}
	if o.status != http.StatusNotFound {
		t.Skipf("%s answered %d after the refresh: the stale-link defect no longer shows", abstract, o.status)
	}
	if v := clickVerdict(o, want); v != verdictStale {
		t.Errorf("verdict %d, want stale", v)
	}
}

func TestDeckDealsTheSameMixInEveryRound(t *testing.T) {
	d := deck{kinds: []string{"a", "a", "a", "b", "c"}}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		got := map[string]int{}
		for i := 0; i < len(d.kinds); i++ {
			got[d.deal(r)]++
		}
		if got["a"] != 3 || got["b"] != 1 || got["c"] != 1 {
			t.Fatalf("round %d dealt %v, want a:3 b:1 c:1", round, got)
		}
	}
}
