// Differential query evaluation (materialized-view maintenance for
// StruQL). A Materialized holds, per query block, the block's binding
// relation keyed so that tuples are addressable, plus a replica of the
// construction stage's effects on the output graph (support-counted
// edges, memberships, Skolem nodes, and aggregate groups). Applying a
// batch of graph.Ops propagates the change through the plan — deleted
// elements are semi-joined against the retained bindings of sibling
// conditions and rechecked, inserted elements seed new derivations —
// and emits a binding delta into the construct replica so the output
// graph stays byte-identical (page-visible order included) to a
// from-scratch run.
//
// The crux is ordering: the from-scratch construct stage processes
// binding rows in bind order, and edge lists in the output graph
// inherit that order. Every row therefore carries a sort key that
// reproduces its from-scratch rank without re-binding (see
// computeSort); keys are derived from monotone per-adjacency-list
// sequence numbers, exploiting that graph mutations either append to
// or splice out of adjacency lists, never reorder them.
package struql

import (
	"fmt"
	"sort"
	"strings"

	"strudel/internal/graph"
)

// MatStats reports what one Apply did.
type MatStats struct {
	// Ops is the number of journal entries applied.
	Ops int
	// RowsRetained counts binding tuples kept without recomputation.
	RowsRetained int
	// RowsRechecked counts tuples re-verified against the new graph.
	RowsRechecked int
	// RowsAdded / RowsRemoved count the binding delta.
	RowsAdded   int
	RowsRemoved int
	// BlocksDifferential / BlocksFallback / BlocksRebound count blocks
	// maintained tuple-at-a-time vs fully re-bound this Apply.
	BlocksDifferential int
	BlocksFallback     int
	BlocksRebound      int
	// ListsRepaired counts output adjacency/collection lists whose
	// order was restored after in-place edits.
	ListsRepaired int
	// Renumbered reports whether output-graph OIDs were reassigned to
	// restore construction order. When false, every OID of the previous
	// output is still valid — callers holding OID-keyed state (path
	// maps, rendered-page tables) can reuse it without re-resolving
	// names.
	Renumbered bool
	// Touched are output-graph nodes whose page-visible state changed.
	Touched []graph.OID
}

// BlockMode describes one block's maintenance mode, for explain.
type BlockMode struct {
	Query int
	Block int
	// Mode is "differential" or "fallback".
	Mode string
	// Reason explains a fallback classification.
	Reason string
	// Rows is the current size of the block's binding relation (-1
	// when no materialization exists yet).
	Rows int
}

// stepKind classifies one recorded plan step for sort-key purposes.
type stepKind uint8

const (
	stepFilter   stepKind = iota // 0 sort units
	stepCollGen                  // 1 unit: collection sequence
	stepEdgeOut                  // 1 unit: out-list sequence of (label,to)
	stepEdgeIn                   // 1 unit: in-list sequence of (label,from)
	stepEdgeScan                 // 2 units: (from OID, out-list sequence)
	stepInSetGen                 // 1 unit: first matching set index
	stepDomain                   // unplannable: forces fallback
)

// matStep is one step of the block's replicated greedy plan: the
// condition plus the boundness snapshot the interpreter would have
// seen, which fixes both the access method and the sort-unit shape.
type matStep struct {
	cond       Condition
	kind       stepKind
	fromBound  bool // EdgeCond: From bound before this step
	toBound    bool // EdgeCond: To bound before this step
	labelBound bool // EdgeCond: label var bound before this step
	units      int
}

// matBlock is one query block's materialized binding relation.
type matBlock struct {
	q    int // query index
	idx  int // pre-order index across all queries (construct order)
	b    *Block
	par  *matBlock
	kids []*matBlock
	// plan is the replicated greedy ordering of b.Where.
	plan []matStep
	// diff reports whether tuples are maintained differentially;
	// fallback blocks re-bind in full when touched.
	diff   bool
	reason string
	units  int // total sort units of one row (diff blocks)
	// parVars are the variables bound by ancestor blocks.
	parVars map[string]bool
	// ownVars are variables appearing in this block's conditions.
	ownVars map[string]bool
	// rows is the binding relation keyed by rowKey(env).
	rows map[string]*mrow
	// index maps a value to the rows whose own-condition variables
	// bind it — the semi-join access path for deletions/insertions.
	index map[graph.Value]map[*mrow]struct{}
	// bound counts the live rows binding each own variable. When
	// bound[v] covers every row, index lookups on v's value are a
	// complete access path (vars appearing only under negation may be
	// unbound in some rows, which the index cannot see).
	bound map[string]int
	// byParent groups rows under their parent tuple.
	byParent map[*mrow]map[*mrow]struct{}
	// rel caches the block's static delta-sensitivity.
	rel *blockRelevance
}

// mrow is one addressable binding tuple.
type mrow struct {
	env   env
	key   string
	block *matBlock
	par   *mrow
	// sort is the full from-scratch rank: the parent's sort followed
	// by nloc local units. Lexicographic order over sort equals the
	// order the sequential construct stage would visit rows.
	sort []uint64
	nloc int
	// cons are the construction effects registered for this row,
	// stored so unregistration is exactly symmetric even after the
	// source values vanish from the data graph.
	cons []conOp
	dead bool
}

// localSort returns the row's own units (sans parent prefix).
func (r *mrow) localSort() []uint64 { return r.sort[len(r.sort)-r.nloc:] }

// ---- monotone sequence numbers over input-graph lists ----

type seqKind uint8

const (
	ctxOut seqKind = iota
	ctxIn
	ctxColl
)

// seqCtx identifies one ordered list of the input graph.
type seqCtx struct {
	kind seqKind
	node graph.OID // ctxOut / ctxIn
	coll string    // ctxColl
}

// seqElem identifies one element of such a list.
type seqElem struct {
	label string // edge label ("" for collections)
	val   graph.Value
}

// seqList assigns each current element a number whose order equals
// the element's list position. Appends take the next counter value;
// removals delete; positions are never renumbered, which is sound
// because graph mutations only append or splice.
type seqList struct {
	m    map[seqElem]uint64
	next uint64
}

// ---- Materialized ----

// Materialized is the differential evaluator's state for a set of
// queries sharing one output graph.
type Materialized struct {
	in      *graph.Graph
	out     *graph.Graph
	reg     *Registry
	queries []*Query
	evs     []*evaluator
	blocks  []*matBlock
	roots   []*mrow // one virtual root row per query
	seqs    map[seqCtx]*seqList
	rowN    int
	maxB    int

	// Construct replica (differential_construct.go).
	presRef map[string]int
	edges   map[conEdgeKey]*supSet
	members map[conMemKey]*supSet
	aggs    map[aggGKey]*aggGroup
	pend    *pending

	// Renumber bookkeeping: per-name minimum construct rank, the rows
	// referencing each name, and the names in construct-rank order.
	// Invariant between applies: order is also ascending-OID order, so
	// each apply only re-ranks the touched names and checks their
	// neighborhoods instead of recomputing every row's rank.
	rank     map[string][]uint64
	rankRow  map[string]*mrow // the row achieving each name's rank
	refRows  map[string]map[*mrow]struct{}
	order    []string
	ordDirty bool

	valid  bool
	reason string
}

// Valid reports whether the materialization can absorb deltas.
func (m *Materialized) Valid() bool { return m != nil && m.valid }

// Reason explains why the materialization is invalid.
func (m *Materialized) Reason() string {
	if m == nil {
		return "not primed"
	}
	return m.reason
}

// Output returns the maintained output graph.
func (m *Materialized) Output() *graph.Graph { return m.out }

// Invalidate marks the materialization unusable.
func (m *Materialized) Invalidate(reason string) {
	if m == nil {
		return
	}
	m.valid, m.reason = false, reason
}

// BlockModes reports the maintenance mode of every block.
func (m *Materialized) BlockModes() []BlockMode {
	if m == nil {
		return nil
	}
	out := make([]BlockMode, 0, len(m.blocks))
	for _, mb := range m.blocks {
		bm := BlockMode{Query: mb.q, Block: mb.idx, Mode: "differential", Rows: len(mb.rows)}
		if !mb.diff {
			bm.Mode, bm.Reason = "fallback", mb.reason
		}
		out = append(out, bm)
	}
	return out
}

// BindingDump renders every block's binding relation in from-scratch
// order, for cross-checking against a fresh evaluation in tests. Node
// values render by data-graph name where one exists — OIDs are an
// allocation accident, so two independently built graphs over the same
// logical data must dump identically.
func (m *Materialized) BindingDump() map[int][]string {
	out := map[int][]string{}
	for _, mb := range m.blocks {
		rows := mb.orderedRows()
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = m.dumpKey(r.env)
		}
		out[mb.idx] = keys
	}
	return out
}

// dumpKey renders a row for BindingDump: name=value pairs in name
// order, node values resolved to their data-graph names (unnamed nodes
// keep the raw rendering). Unlike rowKey it is printable, not
// injective.
func (m *Materialized) dumpKey(e env) string {
	names := make([]string, 0, len(e))
	for n := range e {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(n)
		sb.WriteByte('=')
		v := e[n]
		if v.IsNode() {
			if nm := m.in.NodeName(v.OID()); nm != "" {
				sb.WriteString(nm)
				sb.WriteByte(';')
				continue
			}
		}
		sb.WriteString(v.String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// orderedRows returns the block's rows in from-scratch order.
func (mb *matBlock) orderedRows() []*mrow {
	rows := make([]*mrow, 0, len(mb.rows))
	for _, r := range mb.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return sortLess(rows[i].sort, rows[j].sort) })
	return rows
}

func sortLess(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ClassifyBlocks reports every block's maintenance mode (differential
// vs fallback, with the fallback reason) without priming any binding
// rows — the static part of the analysis, for explain output. Rows is
// -1 on every entry since no materialization exists.
func ClassifyBlocks(queries []*Query, in *graph.Graph, reg *Registry) ([]BlockMode, error) {
	caps := make([]*Capture, len(queries))
	m, err := NewMaterialized(queries, in, in.NewSibling("classify"), reg, caps, 0)
	if err != nil {
		return nil, err
	}
	modes := m.BlockModes()
	for i := range modes {
		modes[i].Rows = -1
	}
	return modes, nil
}

// NewMaterialized primes a differential evaluator from a completed
// full evaluation: queries were evaluated against in producing out,
// and cap holds every block's binding relation. No graph writes
// happen during priming — the replica state is reconstructed to match
// what the full run already built.
func NewMaterialized(queries []*Query, in, out *graph.Graph, reg *Registry, caps []*Capture, maxBindings int) (*Materialized, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	if maxBindings == 0 {
		maxBindings = defaultMaxBindings
	}
	m := &Materialized{
		in: in, out: out, reg: reg, queries: queries,
		seqs:    map[seqCtx]*seqList{},
		maxB:    maxBindings,
		presRef: map[string]int{},
		edges:   map[conEdgeKey]*supSet{},
		members: map[conMemKey]*supSet{},
		aggs:    map[aggGKey]*aggGroup{},
		rank:    map[string][]uint64{},
		rankRow: map[string]*mrow{},
		refRows: map[string]map[*mrow]struct{}{},
	}
	for qi, q := range queries {
		ev := &evaluator{
			in: in, out: out, reg: reg,
			varKinds: q.Root.Vars(),
			newNodes: map[graph.OID]bool{},
			nfaCache: map[*PathExpr]*nfa{},
			maxB:     maxBindings,
		}
		m.evs = append(m.evs, ev)
		root := &mrow{env: env{}, key: "", sort: nil}
		m.roots = append(m.roots, root)
		if err := m.primeBlock(qi, q.Root, nil, root, caps[qi]); err != nil {
			return nil, err
		}
	}
	if err := m.primeFinish(); err != nil {
		return nil, err
	}
	if err := m.primeOrder(); err != nil {
		return nil, err
	}
	m.valid = true
	return m, nil
}

// primeBlock builds the matBlock tree in pre-order and registers the
// captured rows.
func (m *Materialized) primeBlock(qi int, b *Block, par *matBlock, parentRoot *mrow, cap *Capture) error {
	mb := &matBlock{
		q: qi, idx: len(m.blocks), b: b, par: par,
		rows:     map[string]*mrow{},
		index:    map[graph.Value]map[*mrow]struct{}{},
		byParent: map[*mrow]map[*mrow]struct{}{},
		parVars:  map[string]bool{},
		ownVars:  map[string]bool{},
		bound:    map[string]int{},
	}
	if par != nil {
		for v := range par.parVars {
			mb.parVars[v] = true
		}
		for v := range par.ownVars {
			mb.parVars[v] = true
		}
	}
	vm := map[string]varKind{}
	for _, c := range b.Where {
		c.vars(vm)
	}
	for v := range vm {
		mb.ownVars[v] = true
	}
	m.blocks = append(m.blocks, mb)
	if par != nil {
		par.kids = append(par.kids, mb)
	}
	if err := m.buildPlan(mb); err != nil {
		return err
	}
	if err := m.checkConstructible(mb); err != nil {
		return err
	}
	// Register the captured rows. Captured order is from-scratch bind
	// order, which positional fallback keys rely on.
	var rows []env
	if cap != nil {
		rows = cap.envs[b]
	}
	for i, e := range rows {
		par := m.parentRowOf(mb, e, parentRoot)
		if par == nil {
			return fmt.Errorf("struql: differential prime: no parent tuple for row in block %d", mb.idx)
		}
		var local []uint64
		if mb.diff {
			var err error
			local, err = m.computeSort(mb, e)
			if err != nil {
				return fmt.Errorf("struql: differential prime: %w", err)
			}
		} else {
			local = []uint64{uint64(i)}
		}
		if err := m.addRow(mb, e, par, local, true); err != nil {
			return err
		}
	}
	for _, ch := range b.Children {
		if err := m.primeBlock(qi, ch, mb, parentRoot, cap); err != nil {
			return err
		}
	}
	return nil
}

// parentRowOf finds the parent tuple whose bindings the row extends.
func (m *Materialized) parentRowOf(mb *matBlock, e env, root *mrow) *mrow {
	if mb.par == nil {
		return root
	}
	proj := make(env, len(mb.par.parVars)+len(mb.par.ownVars))
	for v := range mb.par.rowVars() {
		if val, ok := e[v]; ok {
			proj[v] = val
		}
	}
	return mb.par.rows[rowKey(proj)]
}

// rowVars is the set of variables a block's tuples carry: ancestor
// variables plus its own.
func (mb *matBlock) rowVars() map[string]bool {
	out := make(map[string]bool, len(mb.parVars)+len(mb.ownVars))
	for v := range mb.parVars {
		out[v] = true
	}
	for v := range mb.ownVars {
		out[v] = true
	}
	return out
}

// buildPlan replicates the interpreter's greedy condition ordering
// without any rows, recording per-step boundness, and classifies the
// block. The replication is exact because pickNext's scores depend
// only on the bound-variable set and collection existence — both of
// which Apply re-validates (a new collection invalidates the whole
// materialization).
func (m *Materialized) buildPlan(mb *matBlock) error {
	ev := m.evs[mb.q]
	bound := map[string]bool{}
	for v := range mb.parVars {
		bound[v] = true
	}
	remaining := make([]Condition, len(mb.b.Where))
	copy(remaining, mb.b.Where)
	fallback := func(reason string) {
		if mb.diff || mb.reason == "" {
			mb.reason = reason
		}
		mb.diff = false
	}
	mb.diff = true
	for len(remaining) > 0 {
		idx, score := ev.pickNext(remaining, bound)
		if score >= scoreNeedsDomain {
			// Active-domain expansion: delta-sensitivity is the whole
			// active domain, so the block re-binds in full.
			v, _ := firstUnbound(remaining[idx], bound)
			if v == "" {
				return fmt.Errorf("struql: cannot order condition %s", remaining[idx])
			}
			mb.plan = append(mb.plan, matStep{kind: stepDomain})
			fallback("active-domain step over " + v)
			bound[v] = true
			continue
		}
		c := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		st, reason := m.classifyStep(c, bound)
		if reason != "" {
			fallback(reason)
		}
		mb.plan = append(mb.plan, st)
		mb.units += st.units
		// Canonical bound update, exactly as expandRows replays it.
		if _, err := ev.expand(c, nil, bound); err != nil {
			return err
		}
	}
	return nil
}

// classifyStep computes one plan step's kind, unit count and — when
// the condition cannot be maintained tuple-at-a-time — the fallback
// reason.
func (m *Materialized) classifyStep(c Condition, bound map[string]bool) (matStep, string) {
	termBound := func(t Term) bool { return !t.IsVar() || bound[t.Var] }
	st := matStep{cond: c}
	switch c := c.(type) {
	case *MembershipCond:
		if !m.in.HasCollection(c.Collection) {
			// External predicate: a pure filter.
			st.kind = stepFilter
			return st, ""
		}
		if termBound(c.Arg) {
			st.kind = stepFilter
			return st, ""
		}
		st.kind, st.units = stepCollGen, 1
		return st, ""
	case *EdgeCond:
		st.fromBound = termBound(c.From)
		st.toBound = termBound(c.To)
		st.labelBound = c.Label.Var == "" || bound[c.Label.Var]
		switch {
		case st.fromBound && st.toBound && st.labelBound:
			st.kind = stepFilter
		case st.fromBound:
			st.kind, st.units = stepEdgeOut, 1
		case st.toBound:
			// The node-target case walks the reverse list (1 unit); the
			// atom-target case scans all edges (2 units). Which one runs
			// depends on the bound value's kind, so record both shapes
			// and let computeSort pick; the unit count must be fixed per
			// step, so use the scan shape and zero-pad the in-list case.
			st.kind, st.units = stepEdgeIn, 2
		default:
			st.kind, st.units = stepEdgeScan, 2
		}
		return st, ""
	case *PathCond:
		st.kind = stepFilter
		return st, "path expression " + c.String() + " (NFA frontier restart re-binds the block)"
	case *CompareCond:
		st.kind = stepFilter
		return st, ""
	case *InSetCond:
		if bound[c.Var] {
			st.kind = stepFilter
			return st, ""
		}
		st.kind, st.units = stepInSetGen, 1
		return st, ""
	case *PredCond:
		st.kind = stepFilter
		return st, ""
	case *NotCond:
		st.kind = stepFilter
		if reason := m.impureNot(c.Inner); reason != "" {
			return st, reason
		}
		return st, ""
	default:
		st.kind = stepFilter
		return st, fmt.Sprintf("unsupported condition %T", c)
	}
}

// impureNot reports why a negated condition cannot be maintained
// differentially: a negation over graph-reading conditions gains
// tuples on *deletions*, which insertion-seeded propagation cannot
// discover. Pure value-level inner conditions are fine.
func (m *Materialized) impureNot(c Condition) string {
	switch c := c.(type) {
	case *CompareCond, *InSetCond, *PredCond:
		return ""
	case *MembershipCond:
		if !m.in.HasCollection(c.Collection) {
			return "" // external predicate
		}
		return "negated collection membership " + c.String()
	case *NotCond:
		return m.impureNot(c.Inner)
	default:
		return "negated graph condition " + c.String()
	}
}

// ---- sequence lookups and sort-key computation ----

// seqOf returns the sequence list for a context, lazily initializing
// it from the live graph. Lazy initialization is correct mid-Apply
// because the graph already holds the batch's final state and the
// phase-0 replay only updates already-initialized lists.
func (m *Materialized) seqOf(ctx seqCtx) *seqList {
	if l, ok := m.seqs[ctx]; ok {
		return l
	}
	l := &seqList{m: map[seqElem]uint64{}}
	switch ctx.kind {
	case ctxOut:
		m.in.EachOut(ctx.node, func(e graph.Edge) bool {
			el := seqElem{label: e.Label, val: e.To}
			if _, dup := l.m[el]; !dup {
				l.m[el] = l.next
				l.next++
			}
			return true
		})
	case ctxIn:
		for _, e := range m.in.In(ctx.node) {
			el := seqElem{label: e.Label, val: graph.NodeValue(e.From)}
			if _, dup := l.m[el]; !dup {
				l.m[el] = l.next
				l.next++
			}
		}
	case ctxColl:
		for _, v := range m.in.Collection(ctx.coll) {
			el := seqElem{val: v}
			if _, dup := l.m[el]; !dup {
				l.m[el] = l.next
				l.next++
			}
		}
	}
	m.seqs[ctx] = l
	return l
}

// bumpSeq applies one journal op to the initialized sequence lists.
func (m *Materialized) bumpSeq(op graph.Op) {
	touch := func(ctx seqCtx, el seqElem, add bool) {
		l, ok := m.seqs[ctx]
		if !ok {
			return // uninitialized: next access reads the final graph
		}
		if add {
			if _, dup := l.m[el]; !dup {
				l.m[el] = l.next
				l.next++
			}
		} else {
			delete(l.m, el)
		}
	}
	switch op.Kind {
	case graph.OpAddEdge, graph.OpRemoveEdge:
		add := op.Kind == graph.OpAddEdge
		touch(seqCtx{kind: ctxOut, node: op.Edge.From}, seqElem{label: op.Edge.Label, val: op.Edge.To}, add)
		if op.Edge.To.IsNode() {
			touch(seqCtx{kind: ctxIn, node: op.Edge.To.OID()}, seqElem{label: op.Edge.Label, val: graph.NodeValue(op.Edge.From)}, add)
		}
	case graph.OpAddMember, graph.OpRemoveMember:
		touch(seqCtx{kind: ctxColl, coll: op.Coll}, seqElem{val: op.Member}, op.Kind == graph.OpAddMember)
	case graph.OpRemoveNode:
		delete(m.seqs, seqCtx{kind: ctxOut, node: op.Node})
		delete(m.seqs, seqCtx{kind: ctxIn, node: op.Node})
	}
}

// computeSort derives a row's local from-scratch rank from its fully
// bound environment: at every generator step the element the
// interpreter would have scanned is recoverable from the environment,
// and its sequence number is its rank within the scanned list. When a
// step's choice does not bind anything (an Any-label edge), multiple
// elements could have produced the same row and the first derivation
// wins, so the minimum matching sequence number is taken — minima are
// independent across such steps because the choices bind nothing.
func (m *Materialized) computeSort(mb *matBlock, e env) ([]uint64, error) {
	key := make([]uint64, 0, mb.units)
	for _, st := range mb.plan {
		switch st.kind {
		case stepFilter:
			// no units
		case stepCollGen:
			c := st.cond.(*MembershipCond)
			v := e[c.Arg.Var]
			l := m.seqOf(seqCtx{kind: ctxColl, coll: c.Collection})
			s, ok := l.m[seqElem{val: v}]
			if !ok {
				return nil, fmt.Errorf("stale row: %s not in collection %s", v, c.Collection)
			}
			key = append(key, s)
		case stepEdgeOut:
			c := st.cond.(*EdgeCond)
			fv, _ := resolve(c.From, e)
			if !fv.IsNode() {
				return nil, fmt.Errorf("stale row: edge source %s is not a node", fv)
			}
			tv, _ := resolve(c.To, e)
			s, err := m.minOutSeq(fv.OID(), c.Label, e, tv)
			if err != nil {
				return nil, err
			}
			key = append(key, s)
		case stepEdgeIn:
			c := st.cond.(*EdgeCond)
			tv, _ := resolve(c.To, e)
			fv, _ := resolve(c.From, e)
			if tv.IsNode() {
				// Reverse-list walk: 1 meaningful unit, zero-padded to 2.
				if !fv.IsNode() {
					return nil, fmt.Errorf("stale row: edge source %s is not a node", fv)
				}
				s, err := m.minInSeq(tv.OID(), c.Label, e, fv.OID())
				if err != nil {
					return nil, err
				}
				key = append(key, 0, s)
			} else {
				// Atom target: full edge scan in (OID, out-position) order.
				if !fv.IsNode() {
					return nil, fmt.Errorf("stale row: edge source %s is not a node", fv)
				}
				s, err := m.minOutSeq(fv.OID(), c.Label, e, tv)
				if err != nil {
					return nil, err
				}
				key = append(key, uint64(fv.OID()), s)
			}
		case stepEdgeScan:
			c := st.cond.(*EdgeCond)
			fv, _ := resolve(c.From, e)
			tv, _ := resolve(c.To, e)
			if !fv.IsNode() {
				return nil, fmt.Errorf("stale row: edge source %s is not a node", fv)
			}
			s, err := m.minOutSeq(fv.OID(), c.Label, e, tv)
			if err != nil {
				return nil, err
			}
			key = append(key, uint64(fv.OID()), s)
		case stepInSetGen:
			c := st.cond.(*InSetCond)
			s, _ := e[c.Var].AsString()
			found := false
			for i, mv := range c.Set {
				if mv == s {
					key = append(key, uint64(i))
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("stale row: %q not in set", s)
			}
		case stepDomain:
			return nil, fmt.Errorf("computeSort on fallback block")
		}
	}
	return key, nil
}

// stepLabel returns the concrete label a step bound, or "" when the
// label is an unconstrained Any (minimum over all labels applies).
func stepLabel(lt LabelTerm, e env) (string, bool) {
	switch {
	case lt.Var != "":
		v, ok := e[lt.Var]
		if !ok {
			return "", false
		}
		s, _ := v.AsString()
		return s, true
	case lt.Any:
		return "", false
	default:
		return lt.Lit, true
	}
}

// minOutSeq returns the minimum sequence number among the elements of
// from's out-list matching the (label, to) the environment fixes.
func (m *Materialized) minOutSeq(from graph.OID, lt LabelTerm, e env, to graph.Value) (uint64, error) {
	l := m.seqOf(seqCtx{kind: ctxOut, node: from})
	if lbl, exact := stepLabel(lt, e); exact {
		if s, ok := l.m[seqElem{label: lbl, val: to}]; ok {
			return s, nil
		}
		return 0, fmt.Errorf("stale row: edge (%d,%s,%s) missing", from, lbl, to)
	}
	best, found := uint64(0), false
	for el, s := range l.m {
		if el.val == to && (!found || s < best) {
			best, found = s, true
		}
	}
	if !found {
		return 0, fmt.Errorf("stale row: no edge from %d to %s", from, to)
	}
	return best, nil
}

// minInSeq is minOutSeq over a node's reverse list.
func (m *Materialized) minInSeq(to graph.OID, lt LabelTerm, e env, from graph.OID) (uint64, error) {
	l := m.seqOf(seqCtx{kind: ctxIn, node: to})
	fv := graph.NodeValue(from)
	if lbl, exact := stepLabel(lt, e); exact {
		if s, ok := l.m[seqElem{label: lbl, val: fv}]; ok {
			return s, nil
		}
		return 0, fmt.Errorf("stale row: reverse edge (%d,%s,%d) missing", from, lbl, to)
	}
	best, found := uint64(0), false
	for el, s := range l.m {
		if el.val == fv && (!found || s < best) {
			best, found = s, true
		}
	}
	if !found {
		return 0, fmt.Errorf("stale row: no reverse edge from %d", from)
	}
	return best, nil
}

// checkRow re-verifies a fully bound tuple against the current graph:
// with every variable bound, each plan condition acts as an
// independent filter, so the row survives iff every condition keeps
// it. This is exactly the interpreter's own filter semantics, reused.
func (m *Materialized) checkRow(mb *matBlock, e env) (bool, error) {
	ev := m.evs[mb.q]
	for _, st := range mb.plan {
		if st.cond == nil { // domain step: nothing to check
			continue
		}
		bound := make(map[string]bool, len(e))
		for v := range e {
			bound[v] = true
		}
		res, err := ev.expand(st.cond, []env{e}, bound)
		if err != nil {
			return false, err
		}
		if len(res) == 0 {
			return false, nil
		}
	}
	return true, nil
}
