package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// edgeModel is the slice-scan reference for one node's out-edges.
// Node targets are held by name, so the model survives renumbering.
type edgeModel struct {
	edges []modelEdge
}

type modelEdge struct {
	label string
	node  string // target node name; "" for an atom target
	atom  Value
}

func (m *edgeModel) index(e modelEdge) int {
	for i, x := range m.edges {
		if x == e {
			return i
		}
	}
	return -1
}

// target resolves a model edge's target in g.
func target(t *testing.T, g *Graph, e modelEdge) Value {
	t.Helper()
	if e.node == "" {
		return e.atom
	}
	id, ok := g.NodeByName(e.node)
	if !ok {
		t.Fatalf("target node %s missing", e.node)
	}
	return NodeValue(id)
}

// checkHub compares the hub's out-edges, the graph's edge count and
// the hub's edge index (when built) against the model.
func checkHub(t *testing.T, g *Graph, step string, m *edgeModel) {
	t.Helper()
	hub, _ := g.NodeByName("hub")
	out := g.Out(hub)
	if len(out) != len(m.edges) {
		t.Fatalf("%s: %d out-edges, model has %d", step, len(out), len(m.edges))
	}
	for i, e := range out {
		want := m.edges[i]
		got := modelEdge{label: e.Label}
		if e.To.IsNode() {
			got.node = g.NodeName(e.To.OID())
		} else {
			got.atom = e.To
		}
		if got != want || e.From != hub {
			t.Fatalf("%s: out[%d] = %+v from &%d, want %+v", step, i, got, e.From, want)
		}
	}
	if n := g.NumEdges(); n != len(m.edges) {
		t.Fatalf("%s: NumEdges = %d, want %d", step, n, len(m.edges))
	}
	g.mu.RLock()
	set := g.outSets[hub]
	g.mu.RUnlock()
	if set != nil && len(out) < edgeSetThreshold {
		t.Fatalf("%s: edge index kept at fan-out %d", step, len(out))
	}
	if set != nil {
		if len(set) != len(m.edges) {
			t.Fatalf("%s: edge index has %d keys, want %d", step, len(set), len(m.edges))
		}
		for _, e := range out {
			if _, ok := set[edgeKey{e.Label, e.To}]; !ok {
				t.Fatalf("%s: edge index misses %s", step, e)
			}
		}
	}
}

// TestEdgeSetAgainstModel runs add/remove/RemoveNode/RenumberNodes/
// SetLabelOrder sequences on one hub node at fan-outs below, at and
// above edgeSetThreshold, checking duplicate rejection, Out order and
// the edge count against a slice-scan model after every step.
func TestEdgeSetAgainstModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fanout int
	}{
		{"below", edgeSetThreshold - 1},
		{"at", edgeSetThreshold},
		{"above", 3 * edgeSetThreshold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New("g")
			hub := g.NewNode("hub")
			m := &edgeModel{}
			for i := 0; i < tc.fanout+4; i++ {
				g.NewNode(fmt.Sprintf("t%d", i))
			}
			edgeFor := func(i int) modelEdge {
				label := []string{"a", "b"}[i%2]
				if i%3 == 0 {
					return modelEdge{label: label, node: fmt.Sprintf("t%d", i)}
				}
				if i%3 == 1 {
					return modelEdge{label: label, atom: Int(int64(i))}
				}
				return modelEdge{label: label, atom: Float(float64(i))}
			}
			add := func(step string, e modelEdge) {
				t.Helper()
				hub, _ = g.NodeByName("hub")
				before := g.NumEdges()
				if err := g.AddEdge(hub, e.label, target(t, g, e)); err != nil {
					t.Fatal(err)
				}
				if m.index(e) >= 0 {
					if g.NumEdges() != before {
						t.Fatalf("%s: duplicate %+v was added", step, e)
					}
				} else {
					m.edges = append(m.edges, e)
				}
				checkHub(t, g, step, m)
			}
			remove := func(step string, e modelEdge) {
				t.Helper()
				hub, _ = g.NodeByName("hub")
				got := g.RemoveEdge(hub, e.label, target(t, g, e))
				i := m.index(e)
				if got != (i >= 0) {
					t.Fatalf("%s: RemoveEdge(%+v) = %v, model index %d", step, e, got, i)
				}
				if i >= 0 {
					m.edges = append(m.edges[:i:i], m.edges[i+1:]...)
				}
				checkHub(t, g, step, m)
			}

			for i := 0; i < tc.fanout; i++ {
				add("build", edgeFor(i))
			}
			for i := 0; i < tc.fanout; i++ {
				add("duplicate", edgeFor(i)) // every one rejected
			}
			// Int(1) and Float(1) are different targets.
			add("float twin", modelEdge{label: "b", atom: Float(1)})
			remove("remove atom", edgeFor(1))
			remove("remove node target", edgeFor(0))
			remove("remove absent", modelEdge{label: "zz", atom: Int(7)})
			add("re-add appends", edgeFor(1))

			// Reverse the "a" edges in place.
			hub, _ = g.NodeByName("hub")
			var aVals []Value
			var aModel []modelEdge
			for _, e := range m.edges {
				if e.label == "a" {
					aModel = append(aModel, e)
				}
			}
			for i := len(aModel) - 1; i >= 0; i-- {
				aVals = append(aVals, target(t, g, aModel[i]))
			}
			if !g.SetLabelOrder(hub, "a", aVals) {
				t.Fatal("SetLabelOrder rejected a permutation")
			}
			j := len(aModel) - 1
			for i, e := range m.edges {
				if e.label == "a" {
					m.edges[i] = aModel[j]
					j--
				}
			}
			checkHub(t, g, "reorder", m)
			for i := 0; i < tc.fanout; i++ {
				add("duplicate after reorder", edgeFor(i))
			}

			// Deleting a target sweeps the hub's edges to it.
			t3, _ := g.NodeByName("t3")
			g.RemoveNode(t3)
			kept := m.edges[:0:0]
			for _, e := range m.edges {
				if e.node != "t3" {
					kept = append(kept, e)
				}
			}
			m.edges = kept
			checkHub(t, g, "remove target node", m)
			for i := 0; i < tc.fanout; i++ {
				if i != 3 {
					add("duplicate after RemoveNode", edgeFor(i))
				}
			}

			// Renumbering moves targets, then the hub, to new OIDs.
			for _, names := range [][]string{{"t6", "t9"}, {"hub", "t0"}} {
				if g.RenumberNodes(names) == nil {
					t.Fatal("RenumberNodes failed")
				}
				checkHub(t, g, "renumber", m)
				for i := 0; i < tc.fanout+4; i++ {
					if i != 3 {
						add("add after renumber", edgeFor(i))
					}
				}
			}
			remove("remove after renumber", edgeFor(6))

			// Random tail: adds, duplicates and removes.
			rng := rand.New(rand.NewSource(int64(tc.fanout)))
			for k := 0; k < 200; k++ {
				i := rng.Intn(tc.fanout + 4)
				if i == 3 {
					continue
				}
				if rng.Intn(3) == 0 {
					remove("random remove", edgeFor(i))
				} else {
					add("random add", edgeFor(i))
				}
			}
		})
	}
}

// BenchmarkAddEdgeFanout: building one hub's fan-out edge by edge, the
// shape of an index page linking every item. The duplicate check makes
// this quadratic without the per-node edge index; the sizes around
// edgeSetThreshold place the crossover between scan and index.
func BenchmarkAddEdgeFanout(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128, 256, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New("g")
				hub := g.NewNode("hub")
				first := g.alloc.next
				for j := 0; j < n; j++ {
					if err := g.AddEdge(hub, "Item", NodeValue(first+OID(j))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
