package strudel_test

// Provenance golden: the PageProvenance JSON of every page of the
// example sites, byte-compared against fixtures under
// testdata/provenance at worker counts 1 and 4. The recorder keys and
// deduplicates binding rows per node; these fixtures pin its output
// (tuple counts, samples, sources, attributes) so any change to how it
// keys rows must reproduce it exactly. Regenerate with:
// go test -run TestProvenanceGolden -update .

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the provenance golden fixtures")

// literalLabelQuery has an inner block whose condition reads a literal
// label ("nick") over variables its parent already bound: every inner
// row repeats a parent row, so the recorder sees it as a duplicate
// tuple of Person(p) and must still merge the block's "nick" attribute.
const literalLabelQuery = `INPUT People
CREATE Index()
COLLECT Roots(Index())
WHERE People(p), p -> "name" -> n
CREATE Person(p)
LINK Person(p) -> "name" -> n,
     Index() -> "Person" -> Person(p)
{
  WHERE p -> "nick" -> n
  LINK Person(p) -> "Plain" -> n
}
OUTPUT Literal`

func literalLabelBuilder(t *testing.T) *core.Builder {
	t.Helper()
	b := core.NewBuilder("literal-label")
	if err := b.AddQuery(literalLabelQuery); err != nil {
		t.Fatal(err)
	}
	for key, src := range map[string]string{
		"Index":  `<html><body><SFMT_UL Person></body></html>`,
		"Person": `<html><body><h1><SFMT name></h1><SIF Plain><p>goes by name</p></SIF></body></html>`,
	} {
		if err := b.AddTemplate(key, src); err != nil {
			t.Fatal(err)
		}
	}
	b.SetIndex("Index")
	b.SetRootCollection("Roots")
	return b
}

func literalLabelData() *graph.Graph {
	g := graph.New("People")
	for i := 0; i < 6; i++ {
		p := g.NewNode(fmt.Sprintf("person%d", i))
		g.AddToCollection("People", graph.NodeValue(p))
		name := fmt.Sprintf("Person %d", i)
		g.AddEdge(p, "name", graph.Str(name))
		if i%2 == 0 {
			g.AddEdge(p, "nick", graph.Str(name))
		} else {
			g.AddEdge(p, "nick", graph.Str("P"+name))
		}
	}
	return g
}

// twoQueryQueries construct Person(p) from the same binding rows
// {p, a} twice. In the first query a is a plain value variable; the
// second also constrains it with "in", which makes it an arc variable,
// so its values are attribute labels of the node. The second query's
// rows repeat the first's, and the recorder must still merge their
// attributes.
var twoQueryQueries = []string{`INPUT People
CREATE Index()
COLLECT Roots(Index())
WHERE People(p), p -> "shows" -> a
CREATE Person(p)
LINK Person(p) -> "shows" -> a,
     Index() -> "Person" -> Person(p)
OUTPUT Shown`, `INPUT People
WHERE People(p), p -> "shows" -> a, a in {"email", "phone"}
CREATE Person(p)
LINK Person(p) -> "Listed" -> a
OUTPUT Shown`}

func twoQueryBuilder(t *testing.T) *core.Builder {
	t.Helper()
	b := core.NewBuilder("two-query")
	for _, q := range twoQueryQueries {
		if err := b.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for key, src := range map[string]string{
		"Index":  `<html><body><SFMT_UL Person></body></html>`,
		"Person": `<html><body><SFMT_UL shows><SIF Listed><p>listed</p></SIF></body></html>`,
	} {
		if err := b.AddTemplate(key, src); err != nil {
			t.Fatal(err)
		}
	}
	b.SetIndex("Index")
	b.SetRootCollection("Roots")
	return b
}

func twoQueryData() *graph.Graph {
	g := graph.New("People")
	for i, shows := range []string{"email", "phone", "fax", "email"} {
		p := g.NewNode(fmt.Sprintf("person%d", i))
		g.AddToCollection("People", graph.NodeValue(p))
		g.AddEdge(p, "shows", graph.Str(shows))
	}
	return g
}

// provenanceGoldenSites are the graph-backed example sites plus the
// mediated organization site, the literal-label query and the
// two-query site.
func provenanceGoldenSites() map[string]func(t *testing.T, workers int) *core.Result {
	sites := map[string]func(t *testing.T, workers int) *core.Result{}
	graphSite := func(mk func(t *testing.T) *core.Builder, data func() *graph.Graph) func(t *testing.T, workers int) *core.Result {
		return func(t *testing.T, workers int) *core.Result {
			b := mk(t)
			b.EnableIntrospection()
			b.SetWorkers(workers)
			b.SetDataGraph(data())
			res, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	for _, s := range introspectionSites() {
		sites[s.name] = graphSite(s.mkBuilder, s.fresh)
	}
	sites["literal"] = graphSite(literalLabelBuilder, literalLabelData)
	sites["twoquery"] = graphSite(twoQueryBuilder, twoQueryData)
	sites["org"] = func(t *testing.T, workers int) *core.Result {
		src := workload.Organization(30, 8, 3, 7)
		b := orgDiffBuilder(t, src, func() (string, error) { return src.PeopleCSV, nil })
		b.EnableIntrospection()
		b.SetWorkers(workers)
		res, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return sites
}

// provenanceText renders every page's PageProvenance as one JSON line,
// in path order. Binding values carry no JSON form of their own, so
// each sampled tuple is also spelled out on a following line.
func provenanceText(t *testing.T, res *core.Result) []byte {
	t.Helper()
	paths := make([]string, 0, len(res.Site.Pages))
	for p := range res.Site.Pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var buf bytes.Buffer
	for _, path := range paths {
		pp, ok := res.PageProvenance(path)
		if !ok {
			t.Fatalf("no provenance for page %s", path)
		}
		js, err := json.Marshal(pp)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(js)
		buf.WriteByte('\n')
		for _, tup := range pp.Tuples {
			vars := make([]string, 0, len(tup))
			for v := range tup {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			parts := make([]string, len(vars))
			for i, v := range vars {
				parts[i] = v + "=" + tup[v].String()
			}
			fmt.Fprintf(&buf, "  tuple %s\n", strings.Join(parts, " "))
		}
	}
	return buf.Bytes()
}

// TestProvenanceGolden: every page's provenance matches the checked-in
// fixture byte for byte, at worker counts 1 and 4.
func TestProvenanceGolden(t *testing.T) {
	for name, build := range provenanceGoldenSites() {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			file := filepath.Join("testdata", "provenance", name+".golden")
			for _, workers := range []int{1, 4} {
				got := provenanceText(t, build(t, workers))
				if *update && workers == 1 {
					if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(file, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatalf("%v (run with -update to create the fixtures)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: provenance differs from %s", workers, file)
				}
			}
		})
	}
}
