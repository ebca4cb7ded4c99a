// Page provenance: which source objects, attributes and binding
// tuples each constructed node came from. The paper's Skolem-function
// semantics make this natural — every output node is F(args) for
// source arguments — and recording it during construction answers
// "why does this page exist and what does it depend on" exactly, the
// same dependency the incremental rebuilder acts on.
package struql

import (
	"sort"
	"strings"
	"sync"

	"strudel/internal/graph"
)

// SourceRef names one data-graph object a constructed node consumed.
type SourceRef struct {
	OID  graph.OID `json:"oid"`
	Name string    `json:"name,omitempty"`
}

// NodeProvenance is the recorded derivation of one output node: the
// Skolem function that created it, how many binding tuples touched it,
// a sample of those tuples, the source objects its bindings ranged
// over, and the attribute labels its block's conditions read.
type NodeProvenance struct {
	Name       string      `json:"name"`
	Func       string      `json:"func,omitempty"`
	TupleCount int         `json:"tuple_count"`
	Tuples     []Binding   `json:"tuples,omitempty"`
	Sources    []SourceRef `json:"sources,omitempty"`
	Attrs      []string    `json:"attrs,omitempty"`
}

// maxProvTuples bounds the per-node binding-tuple sample: enough to
// show why a page exists without retaining the whole binding relation.
const maxProvTuples = 8

// Provenance records, during one or more evaluations into the same
// output graph, the derivation of every constructed node. Set it on
// Options.Provenance. Safe for concurrent reads after evaluation;
// recording itself happens on the sequential construction stage.
type Provenance struct {
	mu         sync.Mutex
	nodes      map[graph.OID]*nodeProv
	blockAttrs map[*Block][]string
	// rowIDs interns binding-row keys (rowKey) to dense ids, so a node's
	// duplicate-row check is one probe of a small integer set. Rows are
	// identified by content across blocks and evaluations: an inner
	// block that binds no new variable repeats its parent's rows. Freed
	// by Seal.
	rowIDs map[string]uint32
	keyBuf []byte
}

type nodeProv struct {
	name    string
	tuples  int
	sample  []Binding
	rowSeen map[uint32]struct{} // nil after Seal
	sources map[graph.OID]string
	attrs   map[string]struct{}
}

// provRow is one binding row's provenance handle within one construct
// call, built at the row's first node touch and shared by the rest:
// the row's interned id, its source objects and arc-variable
// attributes resolved once under the current query's variable kinds,
// and its block's literal attributes.
type provRow struct {
	id         uint32
	sources    []SourceRef
	attrs      []string
	blockAttrs []string
}

// NewProvenance returns an empty recorder.
func NewProvenance() *Provenance {
	return &Provenance{
		nodes:      map[graph.OID]*nodeProv{},
		blockAttrs: map[*Block][]string{},
		rowIDs:     map[string]uint32{},
	}
}

// Seal ends recording: it frees the row-interning table and the
// per-node duplicate-row sets, which only recording needs. Everything
// recorded stays readable. Rows recorded after Seal are not
// deduplicated against rows recorded before it.
func (p *Provenance) Seal() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rowIDs = map[string]uint32{}
	p.keyBuf = nil
	for _, np := range p.nodes {
		np.rowSeen = nil
	}
}

// record notes that binding row r of block b touched output node id.
// *h is the row's handle for the current construct call: nil on the
// row's first touch, when record keys the row and resolves its sources
// and attributes; later touches reuse it.
func (p *Provenance) record(ev *evaluator, h **provRow, b *Block, id graph.OID, r env) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := *h
	if pr == nil {
		pr = p.keyRowLocked(ev, b, r)
		*h = pr
	}
	np, ok := p.nodes[id]
	if !ok {
		np = &nodeProv{
			name:    ev.out.NodeName(id),
			sources: map[graph.OID]string{},
			attrs:   map[string]struct{}{},
		}
		p.nodes[id] = np
	}
	if np.rowSeen == nil {
		np.rowSeen = map[uint32]struct{}{}
	}
	if _, dup := np.rowSeen[pr.id]; !dup {
		np.rowSeen[pr.id] = struct{}{}
		np.tuples++
		if len(np.sample) < maxProvTuples {
			// Rows are never mutated once bound, so the sample can
			// share the row's map.
			np.sample = append(np.sample, Binding(r))
		}
	}
	// A duplicate row still brings its sources and attributes: an inner
	// block can read a literal label over variables its parent bound,
	// and another query can bind the same row with an arc variable.
	for _, s := range pr.sources {
		np.sources[s.OID] = s.Name
	}
	for _, a := range pr.attrs {
		np.attrs[a] = struct{}{}
	}
	for _, a := range pr.blockAttrs {
		np.attrs[a] = struct{}{}
	}
}

// keyRowLocked builds a row's handle: its interned id, its source
// objects and its arc-variable attributes. Caller holds p.mu.
func (p *Provenance) keyRowLocked(ev *evaluator, b *Block, r env) *provRow {
	p.keyBuf = appendRowKey(p.keyBuf[:0], r)
	id, ok := p.rowIDs[string(p.keyBuf)]
	if !ok {
		id = uint32(len(p.rowIDs))
		p.rowIDs[string(p.keyBuf)] = id
	}
	pr := &provRow{id: id, blockAttrs: p.attrsOfLocked(b)}
	for name, v := range r {
		if v.IsNode() && ev.in.HasNode(v.OID()) {
			pr.sources = append(pr.sources, SourceRef{OID: v.OID(), Name: ev.in.NodeName(v.OID())})
		}
		if ev.varKinds[name] == arcVar {
			if s, ok := v.AsString(); ok && s != "" {
				pr.attrs = append(pr.attrs, s)
			}
		}
	}
	return pr
}

// attrsOfLocked returns (memoizing) the literal attribute labels a
// block's conditions read. Caller holds p.mu.
func (p *Provenance) attrsOfLocked(b *Block) []string {
	if attrs, ok := p.blockAttrs[b]; ok {
		return attrs
	}
	seen := map[string]struct{}{}
	var walk func(c Condition)
	walk = func(c Condition) {
		switch c := c.(type) {
		case *EdgeCond:
			if c.Label.Lit != "" {
				seen[c.Label.Lit] = struct{}{}
			}
		case *NotCond:
			walk(c.Inner)
		}
	}
	for _, c := range b.Where {
		walk(c)
	}
	attrs := make([]string, 0, len(seen))
	for a := range seen {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	p.blockAttrs[b] = attrs
	return attrs
}

// Node returns the provenance record of one output node. Its Tuples
// share the evaluation's binding-row maps: read them, do not modify
// them.
func (p *Provenance) Node(id graph.OID) (*NodeProvenance, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	np, ok := p.nodes[id]
	if !ok {
		return nil, false
	}
	out := &NodeProvenance{
		Name:       np.name,
		Func:       skolemFuncOf(np.name),
		TupleCount: np.tuples,
		Tuples:     append([]Binding(nil), np.sample...),
	}
	for oid, name := range np.sources {
		out.Sources = append(out.Sources, SourceRef{OID: oid, Name: name})
	}
	sort.Slice(out.Sources, func(i, j int) bool {
		a, b := out.Sources[i], out.Sources[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.OID < b.OID
	})
	for a := range np.attrs {
		out.Attrs = append(out.Attrs, a)
	}
	sort.Strings(out.Attrs)
	return out, true
}

// Nodes returns the recorded output-node OIDs in ascending order.
func (p *Provenance) Nodes() []graph.OID {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]graph.OID, 0, len(p.nodes))
	for id := range p.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// skolemFuncOf extracts the Skolem function from a symbolic node name:
// "YearPage(1997)" → "YearPage"; names without an application form
// return "".
func skolemFuncOf(name string) string {
	if i := strings.IndexByte(name, '('); i > 0 {
		return name[:i]
	}
	return ""
}
