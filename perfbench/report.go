package main

import "time"

// layers fills the per-layer metrics of a traced run. Times are
// medians per cycle (build plane) or per request (serving plane);
// counts from a cycle's result are means per cycle; mode counts and
// edge counters are totals over the measured window.
func (r *run) layers(m map[string]float64) {
	tr := r.tr
	var rebuild, med, unattr, alloc, query, bindings, verify, gen sample
	var rendered, reused, invalid, retained, recomputed sample
	for _, c := range r.cycles {
		m["core.cycles"]++
		m["core.mode."+c.mode]++
		if c.res == nil { // failed, or click time
			continue
		}
		st := c.res.Stats
		rebuild.add(ms(c.rebuild))
		med.add(ms(st.MediationTime))
		unattr.add(ms(c.rebuild - st.MediationTime - st.QueryTime - st.VerifyTime - st.GenerateTime))
		alloc.add(float64(st.TotalAlloc) / 1e6)
		info := c.res.Incremental
		if info == nil || info.Mode == "noop" {
			continue
		}
		query.add(ms(st.QueryTime))
		bindings.add(float64(st.Bindings))
		verify.add(ms(st.VerifyTime))
		gen.add(ms(st.GenerateTime))
		invalid.add(float64(len(info.Invalidated)))
		if info.Site != nil {
			rendered.add(float64(info.Site.Rendered))
			reused.add(float64(info.Site.Reused))
		}
		// Selective and full rebuilds re-evaluate every binding; only
		// differential maintenance retains tuples.
		if e := info.Eval; e != nil {
			retained.add(float64(e.RowsRetained))
			recomputed.add(float64(e.RowsRechecked + e.RowsAdded))
		} else {
			retained.add(0)
			recomputed.add(float64(st.Bindings))
		}
	}
	m["core.build_ms"] = tr.durations("core.Build", "", time.Millisecond).median()
	m["core.rebuild_ms"] = rebuild.median()
	m["core.mediation_ms"] = med.median()
	m["core.unattributed_ms"] = unattr.median()
	m["core.alloc_mb"] = alloc.median()
	m["struql.query_ms"] = query.median()
	m["struql.bindings"] = bindings.mean()
	m["struql.tuples_retained"] = retained.mean()
	m["struql.tuples_recomputed"] = recomputed.mean()
	if t := retained.sum() + recomputed.sum(); t > 0 {
		m["struql.recompute_share"] = recomputed.sum() / t
	}
	m["schema.verify_ms"] = verify.median()
	m["sitegen.generate_ms"] = gen.median()
	m["sitegen.pages_rendered"] = rendered.mean()
	m["sitegen.pages_reused"] = reused.mean()
	m["sitegen.pages_invalidated"] = invalid.mean()
	if n := rendered.sum(); n > 0 {
		m["sitegen.render_useful_share"] = invalid.sum() / n
	}

	m["mediator.refresh_ms"] = tr.durations("mediator.RefreshWithReport", "edit", time.Millisecond).median()
	m["mediator.noop_refresh_ms"] = tr.durations("mediator.RefreshWithReport", "noop", time.Millisecond).median()
	m["wrapper.wrap_ms"] = tr.durations("wrapper.Wrap", "", time.Millisecond).median()
	m["graph.site_diff_ms"] = tr.durations("graph.Diff", "", time.Millisecond).median()
	m["publish.ms"] = tr.durations("publish.PublishSite", "", time.Millisecond).median()
	if iso := r.iso; iso != nil {
		m["mediator.delta_objects"] = iso.deltaObjects.mean()
		m["publish.files_written"] = iso.files.mean()
		m["publish.bytes_written"] = iso.bytes.mean()
		m["publish.write_useful_share"] = iso.useful.mean()
	}

	e0, e1 := r.edge0, r.edge1
	m["edge.hits_304"] = float64(e1.hits304 - e0.hits304)
	m["edge.hits_hot"] = float64(e1.hitsHot - e0.hitsHot)
	m["edge.cold"] = float64(e1.cold - e0.cold)
	if n := e1.requests - e0.requests; n > 0 {
		m["edge.hit_ratio"] = float64(e1.hits304-e0.hits304+e1.hitsHot-e0.hitsHot) / float64(n)
	}
	m["edge.promotions"] = float64(e1.promotions - e0.promotions)
	m["edge.rematerializations"] = float64(e1.remat - e0.remat)
	m["edge.serve_us_p50"] = tr.durations("edge.ServeHTTP", "", time.Microsecond).median()
	m["server.middleware_us_p50"] = tr.selfTimes("request", time.Microsecond).median()
	swap := tr.durations("edge.SetSource", "", time.Millisecond)
	swap.addAll(tr.durations("edge.FlushHot", "", time.Millisecond))
	m["edge.swap_ms"] = swap.median()

	m["incremental.rebuild_ms"] = tr.durations("incremental.RebuildDynamic", "", time.Millisecond).median()
	if r.st.dynamic {
		m["incremental.render_ms_p50"] = tr.durations("edge.ServeHTTP", "cold", time.Millisecond).median()
		reg := r.st.reg
		count := func(name string, labels ...string) float64 {
			return float64(reg.Counter(name, "", labels...).Value())
		}
		const cache = "strudel_dynamic_cache_events_total"
		hits, misses := count(cache, "event", "hit"), count(cache, "event", "miss")
		if c := m["core.cycles"]; c > 0 {
			m["incremental.adopted"] = count(cache, "event", "adopt") / c
		}
		if hits+misses > 0 {
			m["incremental.cache_hit_ratio"] = hits / (hits + misses)
		}
		if misses > 0 {
			m["incremental.bindings_per_page"] = count("strudel_dynamic_bindings_total") / misses
		}
	}
	m["incremental.stale_link_404s"] = float64(r.stale)
	if r.clickReqs > 0 {
		m["incremental.stale_link_ratio"] = float64(r.stale) / float64(r.clickReqs)
	}

	m["ledger.append_us"] = tr.durations("ledger.Append", "", time.Microsecond).median()
	m["runtime.gc_cycles"] = float64(r.mem1.NumGC - r.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6
	if r.late != nil {
		m["loadgen.late_ms_p99"], _ = r.late.quantile(0.99)
	}
	m["trace.spans"] = float64(len(tr.all()))
}
