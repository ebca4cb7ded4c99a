package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/ledger"
	"strudel/internal/mediator"
	"strudel/internal/server"
	"strudel/internal/sitegen"
	"strudel/internal/telemetry"
)

// stack is the serving process `strudel serve -metrics -ops
// -hot-pages N -compress [-dynamic]` assembles in serveHandler
// (cmd/strudel/main.go), rebuilt here from the same public calls in
// the same order: telemetry registry, ledger and watchdog, the
// accounting table, Build/BuildDynamic, the edge, the Shed/Recover/
// InstrumentObserved chain and the debug, health and ops endpoints.
// Its refresh method is serve's refresh closure. The benchmark cannot
// call serveHandler itself (it is unexported in package main), so a
// change to that function must be mirrored here; baseline.json lists
// the steps.
type stack struct {
	name     string
	dynamic  bool
	hotPages int
	b        *core.Builder
	rootColl string

	reg  *telemetry.Registry
	led  *ledger.Ledger
	wd   *ledger.Watchdog
	logg *slog.Logger
	acct *server.Accounting
	edge *server.Edge
	// handler is the outer mux requests enter, as serve's http.Server
	// would call it.
	handler http.Handler

	stop chan struct{}
	bg   sync.WaitGroup // goroutines that run until stop closes

	cur  atomic.Pointer[core.Result]          // static mode
	rcur atomic.Pointer[incremental.Renderer] // dynamic mode
	prev *core.Result

	builtAt, dataAsOf atomic.Int64
	curBuild          atomic.Value

	// gen numbers the served builds: it moves just before the edge
	// swaps to a new build, edgeGen just after, so a request sent at
	// edgeGen and answered at gen was served by a build in between.
	gen, edgeGen atomic.Int64
	// onSwap, when set, runs in the refresh goroutine for every new
	// build, before gen moves, with the new site in static mode (nil in
	// dynamic mode): the workloads keep every served build to check
	// responses against.
	onSwap func(gen int64, site *sitegen.Site)

	lane *lane // refresh-cycle spans (nil when untraced)
	// timeEdge, in traced runs, wraps the edge to time Edge.ServeHTTP
	// alone.
	timeEdge bool
}

// cycle is what one refresh did, in the terms the metrics need.
type cycle struct {
	wall    time.Duration // the refresh closure
	cpu     time.Duration // process CPU time over the refresh closure
	rebuild time.Duration // Builder.Rebuild / RebuildDynamic alone
	res     *core.Result  // static mode
	prev    *core.Result
	changed bool
	mode    string
	err     error
}

func newStack(name string, b *core.Builder, rootColl string, dynamic bool, hotPages int) *stack {
	return &stack{name: name, b: b, rootColl: rootColl, dynamic: dynamic, hotPages: hotPages,
		stop: make(chan struct{})}
}

func (s *stack) buildID() string { v, _ := s.curBuild.Load().(string); return v }

// record appends a ledger entry and feeds the watchdog, as serve's
// record closure does; parent is the span the append belongs to.
func (s *stack) record(e ledger.Entry, parent int) {
	id := s.lane.begin("ledger.Append", parent)
	_, err := s.led.Append(e)
	s.lane.end(id)
	if err != nil {
		s.logg.Warn("build ledger append failed", "err", err)
	}
	s.wd.Observe(e)
}

func (s *stack) warnDegraded() {
	if rep := s.b.LastRefresh(); rep != nil && !rep.Ok() {
		s.logg.Warn("refresh degraded", "summary", rep.Summary())
	}
}

// start builds the site and assembles the serving chain. It returns
// once the edge is ready; the caller's first request completes set-up.
func (s *stack) start() error {
	s.logg = telemetry.NewLogger(io.Discard)
	server.SetLogger(s.logg)
	s.reg = telemetry.NewRegistry() // -metrics
	s.b.SetTelemetry(s.reg)
	telemetry.RegisterBuildInfo(s.reg)
	mode := "static"
	if s.dynamic {
		mode = "dynamic"
	}
	var err error
	s.led, err = ledger.Open(ledger.Options{})
	if err != nil {
		return err
	}
	s.wd = ledger.NewWatchdog(ledger.WatchdogConfig{Logger: s.logg})
	s.led.Instrument(s.reg)
	s.wd.Instrument(s.reg)

	// serveOptions.observability with -ops and -hot-pages.
	s.acct = server.NewAccounting(1024)
	s.acct.Instrument(s.reg)
	obs := server.Observability{Registry: s.reg, Accounting: s.acct}
	obs.Tracer = telemetry.NewRequestTracer(16, 8)
	obs.Inflight = server.NewInflight()
	sampler := telemetry.NewRuntimeSampler(s.reg)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		sampler.Run(s.stop, 10*time.Second)
	}()
	ops := &server.Ops{Accounting: obs.Accounting, Runtime: sampler, Tracer: obs.Tracer, Inflight: obs.Inflight}

	edgeCfg := server.EdgeConfig{
		Mode:          mode,
		HotPages:      s.hotPages,
		Compress:      true,
		Accounting:    obs.Accounting,
		Registry:      s.reg,
		RenderTimeout: 10 * time.Second, // serve's -request-timeout default
	}
	s.curBuild.Store("")
	mux := http.NewServeMux()
	var intro server.Introspector
	if s.dynamic {
		r0, err := s.b.BuildDynamic()
		if err != nil {
			return err
		}
		s.rcur.Store(r0)
		s.builtAt.Store(r0.BuiltAt.UnixNano())
		s.dataAsOf.Store(r0.BuiltAt.UnixNano())
		id0 := telemetry.NewID("build")
		s.curBuild.Store(id0)
		s.record(s.dynEntry(id0, "initial", 0), -1)
		s.edge = server.DynamicEdge(s.rcur.Load, s.rootColl, edgeCfg)
		s.edge.NoteBuild(id0)
		mux.Handle("/", s.wrapEdge(s.edge))
		mux.Handle("/query", http.StripPrefix("/query", server.QueryHandlerFrom(
			func() *graph.Graph { return s.rcur.Load().Dec.Input() }, s.b.Registry(), 0)))
		intro.Explain = func() (any, error) { return s.b.ExplainData(s.rcur.Load().Dec.Input()) }
	} else {
		s.b.EnableIntrospection() // -metrics records page provenance
		id := s.lane.begin("core.Build", -1)
		res, err := s.b.Build()
		s.lane.end(id)
		if err != nil {
			return err
		}
		for _, v := range res.Violations {
			s.logg.Warn("constraint violation", "build_id", res.Trace.ID, "violation", fmt.Sprint(v))
		}
		s.cur.Store(res)
		s.prev = res
		s.builtAt.Store(res.BuiltAt.UnixNano())
		s.curBuild.Store(res.Trace.ID)
		s.dataAsOf.Store(dataStamp(res.Refresh, res.BuiltAt).UnixNano())
		s.record(ledger.FromResult(res, "initial"), -1)
		s.edge = server.NewEdge(server.NewSiteSource(res.Site), edgeCfg)
		s.edge.NoteBuild(res.Trace.ID)
		mux.Handle("/", s.wrapEdge(s.edge))
		mux.Handle("/query", http.StripPrefix("/query", server.QueryHandlerFrom(
			func() *graph.Graph { return s.cur.Load().SiteGraph }, s.b.Registry(), 0)))
		intro.Explain = func() (any, error) { return s.b.ExplainData(s.cur.Load().DataGraph) }
		intro.Provenance = func(page string) (any, bool, error) {
			pp, ok := s.cur.Load().PageProvenance(page)
			if !ok {
				return nil, false, nil
			}
			return pp, true, nil
		}
	}
	if s.onSwap != nil {
		var site *sitegen.Site
		if res := s.cur.Load(); res != nil {
			site = res.Site
		}
		s.onSwap(0, site)
	}

	ready := func() error {
		if rep := s.b.LastRefresh(); rep != nil && rep.Failed() {
			return fmt.Errorf("refresh failed: %s", rep.Summary())
		}
		return nil
	}
	h := server.Shed(s.reg, mode, 256, server.Recover(s.reg, mode, mux)) // -max-inflight default
	s.acct.SetFreshness(func() time.Time { return time.Unix(0, s.builtAt.Load()) })
	s.acct.SetDataFreshness(func() time.Time {
		if v := s.dataAsOf.Load(); v != 0 {
			return time.Unix(0, v)
		}
		return time.Time{}
	})
	obs.BuildID = s.buildID
	outer := http.NewServeMux()
	outer.Handle("/", server.InstrumentObserved(obs, mode, h))
	server.AttachHealth(outer, server.Health{Ready: ready})
	outer.Handle("/debug/ledger", s.led.Handler(s.wd))
	server.AttachDebug(outer, s.reg)
	server.AttachIntrospection(outer, intro)
	ops.Mode = mode
	ops.Ready = ready
	ops.BuildID = s.buildID
	ops.Edge = s.edge
	ops.LastBuild = func() any {
		if e, ok := s.led.Last(); ok {
			return e
		}
		return nil
	}
	server.AttachOps(outer, ops)
	s.handler = outer
	return nil
}

func (s *stack) wrapEdge(e *server.Edge) http.Handler {
	if s.timeEdge {
		return timedEdge(e)
	}
	return e
}

// runPolicy starts the edge's hot/cold policy loop on serve's default
// period, as serve does under -hot-pages.
func (s *stack) runPolicy() {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.edge.RunPolicy(s.stop, 0)
	}()
}

// close stops the stack's background goroutines and waits for them.
func (s *stack) close() {
	close(s.stop)
	s.bg.Wait()
}

func (s *stack) dynEntry(id, trigger string, totalMs float64) ledger.Entry {
	e := ledger.Entry{BuildID: id, Site: s.name, Trigger: trigger, Mode: "dynamic", TotalMs: totalMs}
	if rep := s.b.LastRefresh(); rep != nil {
		e.Sources = ledger.SourceRecords(rep)
		e.Data = ledger.DeltaSizeOf(rep.Warehouse)
	}
	return e
}

// refresh is one cycle of serve's refresh loop. Only one goroutine may
// call it, as in serve.
func (s *stack) refresh() cycle {
	root := s.lane.begin("refresh", -1)
	defer s.lane.end(root)
	cpu0 := processCPU()
	var c cycle
	if s.dynamic {
		c = s.refreshDynamic(root)
	} else {
		c = s.refreshStatic(root)
	}
	c.cpu = processCPU() - cpu0
	return c
}

func (s *stack) refreshStatic(root int) cycle {
	t0 := time.Now()
	prev := s.prev
	id := s.lane.begin("core.Rebuild", root)
	next, err := s.b.Rebuild(prev)
	s.lane.end(id)
	rebuild := time.Since(t0)
	if err != nil {
		s.record(ledger.Entry{BuildID: telemetry.NewID("build"), Site: s.name,
			Trigger: "interval", Mode: "failed", Err: err.Error()}, root)
		return cycle{wall: time.Since(t0), rebuild: rebuild, err: err, mode: "failed"}
	}
	s.warnDegraded()
	observed := t0
	if rep := next.Refresh; rep != nil && !rep.At.IsZero() {
		observed = rep.At
	}
	changed := next.Incremental == nil || next.Incremental.Mode != "noop"
	if info := next.Incremental; info != nil && info.Mode != "noop" {
		s.logg.Info("rebuilt", "build_id", next.Trace.ID, "mode", info.Mode, "summary", info.Summary())
	}
	if changed && s.onSwap != nil {
		s.onSwap(s.gen.Load()+1, next.Site)
	}
	if changed {
		s.gen.Add(1)
	}
	s.cur.Store(next)
	if changed {
		id := s.lane.begin("edge.SetSource", root)
		s.edge.SetSource(server.NewSiteSource(next.Site))
		s.lane.end(id)
		s.edge.NoteBuild(next.Trace.ID)
		s.edgeGen.Store(s.gen.Load())
	}
	servable := time.Now()
	e := ledger.FromResult(next, "interval")
	if changed {
		e.StampFreshness(observed, servable)
	}
	s.record(e, root)
	s.curBuild.Store(next.Trace.ID)
	s.dataAsOf.Store(dataStamp(next.Refresh, observed).UnixNano())
	s.prev = next
	s.builtAt.Store(next.BuiltAt.UnixNano())
	mode := "full"
	if next.Incremental != nil {
		mode = next.Incremental.Mode
	}
	return cycle{wall: time.Since(t0), rebuild: rebuild, res: next, prev: prev, changed: changed, mode: mode}
}

func (s *stack) refreshDynamic(root int) cycle {
	t0 := time.Now()
	prev := s.rcur.Load()
	id := s.lane.begin("incremental.RebuildDynamic", root)
	r, err := s.b.RebuildDynamic(prev)
	s.lane.end(id)
	rebuild := time.Since(t0)
	if err != nil {
		s.record(ledger.Entry{BuildID: telemetry.NewID("build"), Site: s.name,
			Trigger: "interval", Mode: "failed", Err: err.Error()}, root)
		return cycle{wall: time.Since(t0), rebuild: rebuild, err: err, mode: "failed"}
	}
	s.warnDegraded()
	bid := telemetry.NewID("build")
	e := s.dynEntry(bid, "interval", ms(time.Since(t0)))
	changed := r != prev
	if changed {
		if s.onSwap != nil {
			s.onSwap(s.gen.Load()+1, nil)
		}
		s.gen.Add(1)
		s.rcur.Store(r)
		id := s.lane.begin("edge.FlushHot", root)
		s.edge.FlushHot()
		s.lane.end(id)
		s.edge.NoteBuild(bid)
		s.edgeGen.Store(s.gen.Load())
		observed := t0
		if rep := s.b.LastRefresh(); rep != nil && !rep.At.IsZero() {
			observed = rep.At
		}
		e.StampFreshness(observed, time.Now())
		s.dataAsOf.Store(dataStamp(s.b.LastRefresh(), observed).UnixNano())
	} else {
		e.Mode = "noop"
	}
	s.curBuild.Store(bid)
	s.record(e, root)
	s.builtAt.Store(r.BuiltAt.UnixNano())
	return cycle{wall: time.Since(t0), rebuild: rebuild, changed: changed, mode: e.Mode}
}

// dataStamp mirrors serve's "data as of" stamp: the refresh time,
// pulled back to the oldest StaleSince of a source not fresh.
func dataStamp(rep *mediator.RefreshReport, fallback time.Time) time.Time {
	if rep == nil || rep.At.IsZero() {
		return fallback
	}
	stamp := rep.At
	for _, st := range rep.Sources {
		if st.State != mediator.Fresh && !st.StaleSince.IsZero() && st.StaleSince.Before(stamp) {
			stamp = st.StaleSince
		}
	}
	return stamp
}
