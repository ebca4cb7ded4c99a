package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/core"
	"strudel/internal/incremental"
	"strudel/internal/sitegen"
	"strudel/internal/workload"
)

// Workload parameters. Every workload serves the way `strudel serve
// -metrics -ops -hot-pages N -compress` does; see baseline.json for
// what each one mirrors and why it was chosen.
const (
	bibEntries  = 2000 // ≈2,020 pages
	bibHotPages = 64   // much smaller than the page count
	bibSetups   = 3

	orgPeople, orgProjects, orgDepts = 400, 40, 8
	orgHotPages                      = 32
	orgSetups                        = 9

	zipfS       = 1.1
	conditional = 0.9 // share of revalidations when a tag is cached
	warmup      = 4000

	maintainRate  = 200         // reader requests per second, open loop
	browseClients = 2           // closed loop, one per CPU of the 2-CPU reference host
	browseSlice   = time.Second // one noop refresh cycle, then reads
	browseSpans   = 64          // traced runs: one request in 64 gets spans

	clickSessions = 12          // sessions started per second, open loop
	clickSteps    = 8           // requests per session
	clickThink    = time.Second // mean
	clickUsers    = 64          // sessions take turns over this many user agents
	clickEditGap  = 500 * time.Millisecond
	policyEvery   = 10 * time.Second // serve's RunPolicy default
)

// run collects what one workload run measured.
type run struct {
	o  options
	tr *tracer
	// buildLane records the build plane: set-up on the main goroutine,
	// then refresh cycles on the refresher, never both at once.
	buildLane *lane
	st        *stack
	tally     tally
	setup     sample // s
	setupCPU  sample // s, process CPU time of each set-up
	cycles    []cycle
	req       sample // µs
	done      int
	span      time.Duration // first due (or start) to last completion
	// rpsSample, for a closed loop, holds completions per second.
	rpsSample *sample
	late      *sample
	iso       *isolated
	notes     []string

	edge0, edge1 edgeCounts
	mem0, mem1   runtime.MemStats

	// click
	stale, clickReqs int
}

type edgeCounts struct{ hits304, hitsHot, cold, promotions, remat, requests uint64 }

func (r *run) edgeSnap() edgeCounts {
	st := r.st.edge.Stats()
	return edgeCounts{st.Hits304, st.HitsHot, st.Cold, st.Promotions, st.Rematerializations, st.Requests}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// applySpec registers a site spec the way the manifest loader and
// exampleBuilder do.
func applySpec(b *core.Builder, spec *workload.SiteSpec) error {
	if err := b.AddQuery(spec.Query); err != nil {
		return err
	}
	b.AddTemplates(spec.Templates)
	b.SetIndex(spec.Index)
	var embed []string
	for key := range spec.EmbedOnly {
		embed = append(embed, key)
	}
	sort.Strings(embed)
	b.SetEmbedOnly(embed...)
	b.SetRootCollection(spec.RootCollection)
	return nil
}

func newBuilder(spec *workload.SiteSpec, sources []sourceDef) (*core.Builder, error) {
	b := core.NewBuilder(spec.Name)
	for _, s := range sources {
		if err := b.AddSourceFunc(s.name, s.kind, s.fetch); err != nil {
			return nil, err
		}
	}
	return b, applySpec(b, spec)
}

func bibSources(src *bibSource) []sourceDef {
	return []sourceDef{{"refs.bib", "bibtex", src.fetch}}
}

// orgSources lists the five organization sources; people is the
// people CSV's fetch function.
func orgSources(org *workload.OrgSources, people func() (string, error)) []sourceDef {
	defs := []sourceDef{
		{"people.csv", "csv", people},
		{"departments.csv", "csv", workload.StaticFetch(org.DepartmentsCSV)},
		{"projects.txt", "structured", workload.StaticFetch(org.ProjectsTxt)},
		{"refs.bib", "bibtex", workload.StaticFetch(org.BibTeX)},
	}
	var pages []string
	for n := range org.HTMLPages {
		pages = append(pages, n)
	}
	sort.Strings(pages)
	for _, n := range pages {
		defs = append(defs, sourceDef{n, "html", workload.StaticFetch(org.HTMLPages[n])})
	}
	return defs
}

// setUp builds a fresh serving stack reps times, keeping the last.
// Creating the builder and registering sources is outside the timing;
// the initial build (or decomposition), the serving chain and the
// first answer to "/" are inside.
func (r *run) setUp(reps int, mk func() (*stack, error), first func(*client) error) error {
	for i := 0; i < reps; i++ {
		if r.st != nil {
			r.st.close()
		}
		st, err := mk()
		if err != nil {
			return err
		}
		r.st = st
		runtime.GC()
		cpu0, t0 := processCPU(), time.Now()
		if err := st.start(); err != nil {
			return err
		}
		c := newClient(st.handler, 0, 0, true)
		_, done := c.get("/")
		r.setup.add(done.Sub(t0).Seconds())
		r.setupCPU.add((processCPU() - cpu0).Seconds())
		r.tally.check(first(c))
	}
	return nil
}

// siteHistory keeps every build a static stack has served, by
// generation, so a response can be checked against the builds that
// were current while it was in flight.
type siteHistory struct {
	p atomic.Pointer[[]*sitegen.Site]
}

func (h *siteHistory) add(gen int64, site *sitegen.Site) {
	var sites []*sitegen.Site
	if old := h.p.Load(); old != nil {
		sites = append(sites, (*old)...)
	}
	for int64(len(sites)) <= gen {
		sites = append(sites, nil)
	}
	sites[gen] = site
	h.p.Store(&sites)
}

func (h *siteHistory) at(gen int64) *sitegen.Site {
	sites := *h.p.Load()
	if gen < 0 || gen >= int64(len(sites)) {
		return nil
	}
	return sites[gen]
}

// checkStatic validates the client's last response to path against the
// builds of generations lo..hi: a 200 must carry one build's bytes and
// ETag, a 304 is valid only for the tag that build gives the page, a
// 404 only when that build has no such page.
func checkStatic(c *client, h *siteHistory, path string, lo, hi int64) error {
	key := strings.TrimPrefix(path, "/")
	if key == "" {
		key = "index.html"
	}
	etag := c.rec.header.Get("ETag")
	for g := hi; g >= lo; g-- {
		site := h.at(g)
		if site == nil {
			continue
		}
		pg, ok := site.Pages[key]
		switch c.rec.status {
		case http.StatusOK:
			if ok && etag == pg.ETag && c.bodyIs(etag, pg.HTML) {
				return nil
			}
		case http.StatusNotModified:
			if ok && c.inm == pg.ETag && etag == pg.ETag {
				return nil
			}
		case http.StatusNotFound:
			if !ok {
				return nil
			}
		}
	}
	return fmt.Errorf("%s: status %d etag %q does not match builds %d..%d", path, c.rec.status, etag, lo, hi)
}

// staticRequest sends one request and checks it against the builds
// in flight; it returns the chain time and completion time.
func staticRequest(c *client, st *stack, h *siteHistory, path string) (time.Duration, time.Time) {
	lo := st.edgeGen.Load()
	d, done := c.get(path)
	hi := st.gen.Load()
	c.tally.check(checkStatic(c, h, path, lo, hi))
	return d, done
}

// prepareStatic sets up the bibliography site as serve does, makes
// n readers and replays untimed warm-up traffic through them so the
// accounting table ranks pages, runs one policy pass and starts the
// policy loop: the state of a server that has been up for a while.
// In traced runs, one request in every spanEvery gets spans.
func (r *run) prepareStatic(n, spanEvery int) (*bibSource, *siteHistory, []string, []*client, error) {
	src := newBibSource(bibEntries, r.o.seed)
	hist := &siteHistory{}
	mk := func() (*stack, error) {
		b, err := newBuilder(workload.BibliographySpec(), bibSources(src))
		if err != nil {
			return nil, err
		}
		st := newStack("homepage", b, "Roots", false, bibHotPages)
		st.lane, st.timeEdge = r.buildLane, r.tr != nil
		st.onSwap = hist.add
		return st, nil
	}
	first := func(c *client) error { return checkStatic(c, hist, "/", 0, 0) }
	if err := r.setUp(bibSetups, mk, first); err != nil {
		return nil, nil, nil, nil, err
	}
	ranked := rankPages(r.st.cur.Load().Site)
	clients := make([]*client, n)
	for i := range clients {
		c := newClient(r.st.handler, r.o.seed*7919+int64(i)+1, conditional, true)
		z := rand.NewZipf(c.rng, zipfS, 1, uint64(len(ranked)-1))
		for j := 0; j < warmup; j++ {
			staticRequest(c, r.st, hist, ranked[z.Uint64()])
		}
		clients[i] = c
	}
	r.st.edge.Rerank()
	r.st.runPolicy()
	if r.tr != nil {
		var err error
		if r.iso, err = newIsolated(r.tr.lane("isolated"), bibSources(src), "refs.bib"); err != nil {
			return nil, nil, nil, nil, err
		}
		for i, c := range clients {
			c.lane, c.every = r.tr.lane(fmt.Sprintf("client%d", i)), spanEvery
		}
	}
	return src, hist, ranked, clients, nil
}

// keep records a refresh cycle and, in traced runs, makes the calls
// the cycle hides on its inputs. A failed refresh is recorded, not
// fatal: serve keeps serving the last good build and retries.
func (r *run) keep(c cycle, text string) error {
	var err error
	if r.iso != nil && c.err == nil {
		err = r.iso.mediate(text)
		if err == nil && c.res != nil && c.changed {
			r.iso.diff(c.prev.SiteGraph, c.res.SiteGraph)
			err = r.iso.publish(c.res.Site, c.res.Trace.ID)
		}
	}
	// Keep only what the per-layer report reads. A result holds its
	// build's graphs, site and provenance; holding every cycle's would
	// leave the collector tracing them during every later cycle, and
	// the cycles measured would pay for the benchmark's own memory.
	if c.res != nil {
		c.res = &core.Result{Stats: c.res.Stats, Incremental: c.res.Incremental}
	}
	c.prev = nil
	r.cycles = append(r.cycles, c)
	return err
}

// countCycles adds the refresh cycles to the tally once the refresher
// has stopped.
func (r *run) countCycles() {
	for _, c := range r.cycles {
		if c.err != nil {
			r.tally.fail("refresh: " + c.err.Error())
		} else {
			r.tally.ok()
		}
	}
}

func (r *run) startWindow() time.Time {
	runtime.GC()
	r.edge0 = r.edgeSnap()
	runtime.ReadMemStats(&r.mem0)
	return time.Now()
}

func (r *run) endWindow() {
	r.edge1 = r.edgeSnap()
	runtime.ReadMemStats(&r.mem1)
}

// maintain: a seeded script edits the BibTeX source; every edit is
// followed by one refresh cycle, back to back, while one open-loop
// reader with an ETag cache reads at a low fixed rate.
func runMaintain(r *run) error {
	src, hist, ranked, clients, err := r.prepareStatic(1, 1)
	if err != nil {
		return err
	}
	st, reader := r.st, clients[0]
	window := r.o.window()
	start := r.startWindow()
	var wg sync.WaitGroup
	var isoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Since(start) < window && isoErr == nil {
			kind := src.edit()
			c := st.refresh()
			if c.err == nil && !c.changed {
				r.note("edit %q produced a noop cycle", kind)
			}
			isoErr = r.keep(c, src.snapshot())
		}
	}()
	p := &pacer{clk: realClock{}, start: start}
	// Requests are timed from send. Timed from when they were due, the
	// median is the reader's own wake-up delay after its 5 ms sleep
	// (about 1 ms, more on a busy host), not the server's; that time is
	// printed and its tail is loadgen.late_ms_p99.
	due := &sample{}
	z := rand.NewZipf(reader.rng, zipfS, 1, uint64(len(ranked)-1))
	period := time.Second / maintainRate
	var last time.Time
	for i := 0; time.Duration(i)*period < window; i++ {
		path := ranked[z.Uint64()]
		var d time.Duration
		lat := p.run(time.Duration(i)*period, func() time.Time {
			d, last = staticRequest(reader, st, hist, path)
			return last
		})
		reader.lat.add(us(d))
		due.add(us(lat))
		r.done++
	}
	wg.Wait()
	r.endWindow()
	r.span = last.Sub(start)
	r.late = &p.late
	r.req.addAll(&reader.lat)
	for _, q := range []float64{0.5, 0.99} {
		v, n := due.quantile(q)
		r.note("%-30s %14.4f us (not bounded, %d requests)", fmt.Sprintf("req_due_us_p%g", q*100), v, n)
	}
	r.tally.merge(&reader.tally)
	r.countCycles()
	if isoErr != nil {
		return isoErr
	}
	return r.checkScratch(src)
}

// checkScratch compares the maintained site with a from-scratch Build
// over the final source text, page by page, bytes and ETags.
func (r *run) checkScratch(src *bibSource) error {
	text := src.snapshot()
	b, err := newBuilder(workload.BibliographySpec(),
		[]sourceDef{{"refs.bib", "bibtex", workload.StaticFetch(text)}})
	if err != nil {
		return err
	}
	b.EnableIntrospection()
	want, err := b.Build()
	if err != nil {
		return err
	}
	got := r.st.cur.Load().Site
	var bad []string
	for path, pg := range want.Site.Pages {
		gp, ok := got.Pages[path]
		switch {
		case !ok:
			bad = append(bad, path+" missing")
		case gp.HTML != pg.HTML:
			bad = append(bad, path+" bytes differ")
		case gp.ETag != pg.ETag:
			bad = append(bad, path+" etag differs")
		}
	}
	for path := range got.Pages {
		if _, ok := want.Site.Pages[path]; !ok {
			bad = append(bad, path+" not in scratch build")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		r.tally.fail(fmt.Sprintf("maintained site differs from scratch build: %d pages, first %s", len(bad), bad[0]))
		return errMismatch
	}
	r.tally.ok()
	r.note("maintained site equals scratch build: %d pages, bytes and ETags", len(want.Site.Pages))
	return nil
}

var errMismatch = fmt.Errorf("byte-identity mismatch")

// browse: the same site built once and never edited; two closed-loop
// clients read as fast as they are answered. The window is cut into
// one-second slices. Each slice opens with the noop refresh cycle
// serve's refresh loop would run on the unchanged source, timed on the
// idle server; the clients then read for the rest of the slice. So
// both the polls and the reads are sampled across the whole window,
// and neither takes CPU from the other.
func runBrowse(r *run) error {
	src, hist, ranked, clients, err := r.prepareStatic(browseClients, browseSpans)
	if err != nil {
		return err
	}
	st := r.st
	zipfs := make([]*rand.Zipf, len(clients))
	for i, c := range clients {
		zipfs[i] = rand.NewZipf(c.rng, zipfS, 1, uint64(len(ranked)-1))
	}
	// Throughput is read per slice, over the time the clients ran, and
	// reported as the median slice, so a burst of interference on the
	// shared host moves it less than it moves the total.
	r.rpsSample = &sample{}
	window := r.o.window()
	start := r.startWindow()
	for k := 1; time.Duration(k)*browseSlice <= window; k++ {
		if err := r.keep(st.refresh(), src.snapshot()); err != nil {
			return err
		}
		end := start.Add(time.Duration(k) * browseSlice)
		from := time.Now()
		if !from.Before(end) {
			continue
		}
		var wg sync.WaitGroup
		var n atomic.Int64
		for i, c := range clients {
			wg.Add(1)
			go func(c *client, z *rand.Zipf) {
				defer wg.Done()
				for {
					d, done := staticRequest(c, st, hist, ranked[z.Uint64()])
					c.lat.add(us(d))
					n.Add(1)
					if !done.Before(end) {
						return
					}
				}
			}(c, zipfs[i])
		}
		wg.Wait()
		r.rpsSample.add(float64(n.Load()) / time.Since(from).Seconds())
	}
	r.endWindow()
	for _, c := range clients {
		r.req.addAll(&c.lat)
		r.tally.merge(&c.tally)
	}
	r.countCycles()
	return nil
}

// clickObs is one click-workload response, checked after the run.
type clickObs struct {
	gen    int64
	path   string
	status int
	etag   string
	inm    string
	bad    bool // already failed when it was received
}

// user is one click-workload user agent: its ETag cache and the pages
// it has seen.
type user struct {
	c     *client
	pages map[string]string // path → last body
}

type session struct {
	u     *user
	rng   *rand.Rand
	links []string
}

// event is one entry of the click workload's script.
type event struct {
	at   time.Duration
	kind int // evEdit, evRerank, evReq
	sess int
	seq  int
}

const (
	evEdit = iota
	evRerank
	evReq
)

// clickScript lays out, from the seed alone, every request, edit and
// policy pass of a run, in due order. Sessions start
// at a fixed rate; think times between a session's clicks are
// exponential, so requests do not arrive in lockstep.
func clickScript(window time.Duration, seed int64) (evs []event, sessions int) {
	gap := time.Second / clickSessions
	for s := 0; time.Duration(s)*gap < window; s++ {
		rng := rand.New(rand.NewSource(seed*104723 + int64(s)))
		at := time.Duration(s) * gap
		for k := 0; k < clickSteps && at < window; k++ {
			evs = append(evs, event{at: at, kind: evReq, sess: s})
			at += time.Duration(rng.ExpFloat64() * float64(clickThink))
		}
		sessions = s + 1
	}
	for at := clickEditGap / 2; at < window; at += clickEditGap {
		evs = append(evs, event{at: at, kind: evEdit})
	}
	for at := policyEvery; at < window; at += policyEvery {
		evs = append(evs, event{at: at, kind: evRerank})
	}
	for i := range evs {
		evs[i].seq = i
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].kind != evs[j].kind {
			return evs[i].kind < evs[j].kind
		}
		return evs[i].seq < evs[j].seq
	})
	return evs, sessions
}

// click: the organization site (five wrappers) served at click time.
// Sessions arrive open loop at a fixed rate, start at "/" and follow
// links taken from the pages they received; the people CSV is edited
// at a fixed cadence, each edit followed by RebuildDynamic, the swap
// and FlushHot. Requests and refreshes take turns on one goroutine, in
// script order, so which requests see which build — and so every count
// — is a function of the seed, and a refresh never shares the CPUs
// with a click-time render.
func runClick(r *run) error {
	src := newOrgSource(orgPeople, orgProjects, orgDepts, r.o.seed)
	// texts maps a build generation to the people CSV it was built
	// from; pending is the text the refresh in progress fetched.
	pending := src.peopleSnapshot()
	texts := map[int64]string{}
	mk := func() (*stack, error) {
		b, err := newBuilder(workload.OrgSpec(false), orgSources(src.org, src.fetchPeople))
		if err != nil {
			return nil, err
		}
		st := newStack("org-internal", b, "Roots", true, orgHotPages)
		st.lane, st.timeEdge = r.buildLane, r.tr != nil
		st.onSwap = func(gen int64, _ *sitegen.Site) { texts[gen] = pending }
		return st, nil
	}
	first := func(c *client) error {
		if c.rec.status != http.StatusOK || len(c.rec.body) == 0 {
			return fmt.Errorf("first request: status %d", c.rec.status)
		}
		return nil
	}
	if err := r.setUp(orgSetups, mk, first); err != nil {
		return err
	}
	st := r.st
	if r.tr != nil {
		var err error
		if r.iso, err = newIsolated(r.tr.lane("isolated"), orgSources(src.org, src.fetchPeople), "people.csv"); err != nil {
			return err
		}
	}
	users := make([]*user, clickUsers)
	ulane := r.tr.lane("sessions")
	for i := range users {
		c := newClient(st.handler, r.o.seed*7919+int64(i)+1, conditional, true)
		c.lane = ulane
		users[i] = &user{c: c, pages: map[string]string{}}
	}

	window := r.o.window()
	evs, nsess := clickScript(window, r.o.seed)
	sessions := make([]*session, nsess)
	var obs []clickObs
	lat := &sample{}
	start := r.startWindow()
	p := &pacer{clk: realClock{}, start: start}
	var last time.Time
	for _, ev := range evs {
		switch ev.kind {
		case evEdit:
			p.clk.SleepUntil(start.Add(ev.at))
			src.edit()
			pending = src.peopleSnapshot()
			if err := r.keep(st.refresh(), pending); err != nil {
				return err
			}
		case evRerank:
			p.clk.SleepUntil(start.Add(ev.at))
			st.edge.Rerank()
		case evReq:
			s := sessions[ev.sess]
			if s == nil {
				s = &session{u: users[ev.sess%clickUsers], rng: rand.New(rand.NewSource(r.o.seed*104729 + int64(ev.sess)))}
				sessions[ev.sess] = s
			}
			path := "/"
			if len(s.links) > 0 {
				path = s.links[s.rng.Intn(len(s.links))]
			}
			// Requests go out on the script's schedule, but each is timed
			// from send: one goroutine sleeps between requests and runs
			// the refreshes, and its delays are not the server's.
			var o clickObs
			var took time.Duration
			p.run(ev.at, func() time.Time {
				o.gen = st.gen.Load()
				took, last = s.u.c.get(path)
				return last
			})
			lat.add(us(took))
			r.done++
			o.path, o.status, o.etag, o.inm = path, s.u.c.rec.status, s.u.c.rec.header.Get("ETag"), s.u.c.inm
			if err := r.follow(s, path); err != nil {
				r.tally.fail(err.Error())
				o.bad = true
			}
			obs = append(obs, o)
		}
	}
	r.endWindow()
	r.span = last.Sub(start)
	r.late = &p.late
	r.req.addAll(lat)
	r.countCycles()
	return r.checkClick(src, texts, obs)
}

// follow updates a session after a response: a 200 (checked against
// its own ETag) or a 304 (the cached copy) yields the page's links; a
// 404 leaves the session on the page it came from.
func (r *run) follow(s *session, path string) error {
	c := s.u.c
	switch c.rec.status {
	case http.StatusOK:
		b, err := c.body()
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if tag := c.rec.header.Get("ETag"); tag != sitegen.BytesETag(string(b)) {
			return fmt.Errorf("%s: ETag %q does not match the body", path, tag)
		}
		s.u.pages[path] = string(b)
	case http.StatusNotModified:
		if _, ok := s.u.pages[path]; !ok {
			return fmt.Errorf("%s: 304 without a cached copy", path)
		}
	case http.StatusNotFound:
		return nil
	default:
		return fmt.Errorf("%s: status %d", path, c.rec.status)
	}
	s.links = s.links[:0]
	for _, h := range hrefs(s.u.pages[path]) {
		if strings.HasPrefix(h, "/page/") {
			s.links = append(s.links, h)
		}
	}
	return nil
}

// checkClick replays every response against a renderer built from
// scratch over the source texts of the build that served it: a 200 or
// 304 must carry that page's ETag; a 404 is correct only for a page
// the build does not have. A 404 for a page it does have is a stale
// link: a link from a page rendered before a refresh that the new
// decomposition does not know yet. Those are counted, not failed.
func (r *run) checkClick(src *orgSource, texts map[int64]string, obs []clickObs) error {
	type ref struct {
		dec  *incremental.Renderer
		tags map[string]string
	}
	byGen := map[int64]*ref{}
	for _, o := range obs {
		r.clickReqs++
		if o.bad {
			continue
		}
		g := byGen[o.gen]
		if g == nil {
			text, ok := texts[o.gen]
			if !ok {
				return fmt.Errorf("no source text recorded for build %d", o.gen)
			}
			b, err := newBuilder(workload.OrgSpec(false), orgSources(src.org, workload.StaticFetch(text)))
			if err != nil {
				return err
			}
			rend, err := b.BuildDynamic()
			if err != nil {
				return err
			}
			if _, err := rend.Dec.MaterializeAll("Roots"); err != nil {
				return err
			}
			g = &ref{dec: rend, tags: map[string]string{}}
			byGen[o.gen] = g
		}
		want, ok := g.tags[o.path]
		if !ok {
			tag, err := renderTag(g.dec, o.path)
			if err != nil {
				return err
			}
			g.tags[o.path], want = tag, tag
		}
		switch clickVerdict(o, want) {
		case verdictStale:
			r.stale++
		case verdictWrong:
			r.tally.fail(fmt.Sprintf("%s at build %d: status %d etag %q, scratch etag %q", o.path, o.gen, o.status, o.etag, want))
			continue
		}
		r.tally.ok()
	}
	r.note("click: %d of %d responses were stale-link 404s (page exists in the serving build)", r.stale, r.clickReqs)
	return nil
}

type verdict int

const (
	verdictOK verdict = iota
	verdictStale
	verdictWrong
)

// clickVerdict judges one dynamic response against want, the ETag a
// scratch renderer of the serving build gives the page ("" when that
// build has no such page).
func clickVerdict(o clickObs, want string) verdict {
	switch {
	case o.status == http.StatusOK && want != "" && o.etag == want:
		return verdictOK
	case o.status == http.StatusNotModified && want != "" && o.inm == want:
		return verdictOK
	case o.status == http.StatusNotFound && want == "":
		return verdictOK
	case o.status == http.StatusNotFound:
		return verdictStale
	}
	return verdictWrong
}

// renderTag renders path with a scratch renderer and returns its ETag,
// "" when the page does not exist.
func renderTag(rend *incremental.Renderer, path string) (string, error) {
	if path == "/" {
		roots, err := rend.Dec.Roots("Roots")
		if err != nil || len(roots) != 1 {
			return "", fmt.Errorf("scratch roots: %v (%d)", err, len(roots))
		}
		body, err := rend.RenderPage(roots[0])
		return sitegen.BytesETag(body), err
	}
	key, err := url.PathUnescape(strings.TrimPrefix(path, "/page/"))
	if err != nil {
		return "", err
	}
	pr, ok := rend.Dec.Resolve(key)
	if !ok {
		return "", nil
	}
	body, err := rend.RenderPage(pr)
	return sitegen.BytesETag(body), err
}
