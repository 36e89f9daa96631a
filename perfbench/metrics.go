package main

import (
	"fmt"
)

// metricDef names one reported metric and its unit. The tables must
// match BENCHMARK.json (checked by a test).
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off; every workload reports each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"topn_qps", "1/s"},
	{"topn_p50_ms", "ms"},
	{"topn_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MiB"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"ingest_qps", "1/s"},
	{"recover_s", "s"},
	{"space_amp", "ratio"},
}

// layerNames are the per-layer metrics of the traced run, followed by
// the traced run's own end-to-end numbers (traced.<name>).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"http.transport_us_p50", "us"},
		{"server.handler_us_p50", "us"},
		{"server.handler_us_p99", "us"},
		{"server.handler_self_us_p50", "us"},
		{"server.decode_us_p50", "us"},
		{"server.encode_us_p50", "us"},
		{"server.rejected_per_kop", "count"},
		{"server.write_handler_us_p50", "us"},
		{"server.write_handler_us_p99", "us"},
		{"cache.hit_ratio", "ratio"},
		{"cache.coalesced_ratio", "ratio"},
		{"cache.evictions_per_query", "count"},
		{"cache.lookup_us_p50", "us"},
		{"core.walk_us_p50", "us"},
		{"core.walk_us_p99", "us"},
		{"core.walk_self_us_p50", "us"},
		{"core.ns_per_record", "ns"},
		{"core.records_per_result", "count"},
		{"core.layers_per_query", "count"},
		{"core.layers_pruned_per_query", "count"},
		{"core.alloc_bytes_per_query", "bytes"},
	}
	for _, k := range layerKeys {
		defs = append(defs, metricDef{"core.layer" + k + ".us_p50", "us"}, metricDef{"core.layer" + k + ".records", "count"})
	}
	defs = append(defs,
		metricDef{"core.delta_len_mean", "count"},
		metricDef{"core.build_s", "s"},
		metricDef{"core.fold_s", "s"},
		metricDef{"core.folds", "count"},
		metricDef{"core.fold_records", "count"},
		metricDef{"wal.commit_us_p50", "us"},
		metricDef{"wal.commit_us_p99", "us"},
		metricDef{"wal.fsyncs_per_mutation", "count"},
		metricDef{"wal.bytes_per_mutation", "bytes"},
		metricDef{"wal.replayed_records", "count"},
		metricDef{"wal.replay_s", "s"},
		metricDef{"wal.checkpoint_s", "s"},
		metricDef{"storage.load_s", "s"},
		metricDef{"storage.checkpoint_bytes", "bytes"},
		metricDef{"runtime.gc_cycles_per_kop", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes"},
	)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"traced." + m.name, m.unit})
	}
	return defs
}()

// layerKeys are the onion layers reported one by one; deeper layers
// are summed per walk under "rest".
var layerKeys = []string{"0", "1", "2", "3", "4", "5", "6", "7", "rest"}

// spanMetrics turns the traced servers' spans and the client's round
// trips into per-layer metrics. Handler, transport and replay numbers
// use the measured read requests only.
func (r *runner) spanMetrics() {
	var handler, whandler, decode, encode, lookup, walk, walkSelf, commit, fold, foldRecs, self, transport, deltaLen []float64
	var walkNs, walkRecs float64
	var dropped int64
	layerUs := map[string][]float64{}
	layerRecs := map[string][]float64{}
	inMeasure := func(req uint64) bool { return r.measureLoops[req>>32] }
	for _, rep := range r.reports {
		sp := rep.Spans
		selfNs := selfTimes(sp)
		handlerDur := map[uint64]int64{}
		dropped += rep.Dropped
		kids := make([][]int, len(sp))
		for i, s := range sp {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], i)
			}
			switch s.Name {
			case "server.handler":
				if inMeasure(s.Req) {
					handler = append(handler, float64(s.dur())/1e3)
					handlerDur[s.Req] = s.dur()
					if rtt, ok := r.rtt[s.Req]; ok {
						transport = append(transport, float64(rtt-s.dur())/1e3)
					}
				}
			case "server.write_handler":
				whandler = append(whandler, float64(s.dur())/1e3)
			case "wal.commit":
				commit = append(commit, float64(s.dur())/1e3)
			case "core.fold":
				fold = append(fold, float64(s.dur())/1e9)
				foldRecs = append(foldRecs, float64(s.N))
			case "wal.checkpoint":
				r.layer["wal.checkpoint_s"] = float64(s.dur()) / 1e9
			}
		}
		for i, s := range sp {
			if s.Name != "replay" || !inMeasure(s.Req) {
				continue
			}
			var stages int64
			hit := false
			for _, k := range kids[i] {
				c := sp[k]
				us := float64(c.dur()) / 1e3
				switch c.Name {
				case "server.decode":
					decode = append(decode, us)
					stages += c.dur()
				case "server.encode":
					encode = append(encode, us)
					stages += c.dur()
				case "cache.lookup":
					lookup = append(lookup, us)
					stages += c.dur()
					hit = c.N == 1
				case "core.walk":
					walk = append(walk, us)
					// Walk time outside the layer spans: the searcher's
					// set-up, which ranks the delta buffer, and the drain.
					walkSelf = append(walkSelf, float64(selfNs[k])/1e3)
					walkNs += float64(c.dur())
					walkRecs += float64(c.N)
					var restUs, restRecs float64
					rest := false
					for _, l := range kids[k] {
						ls := sp[l]
						switch {
						case ls.Name == "core.delta":
							deltaLen = append(deltaLen, float64(ls.N))
						case ls.Name == "core.layer" && ls.K < len(layerKeys)-1:
							key := layerKeys[ls.K]
							layerUs[key] = append(layerUs[key], float64(ls.dur())/1e3)
							layerRecs[key] = append(layerRecs[key], float64(ls.N))
						case ls.Name == "core.layer":
							restUs += float64(ls.dur()) / 1e3
							restRecs += float64(ls.N)
							rest = true
						}
					}
					if rest {
						layerUs["rest"] = append(layerUs["rest"], restUs)
						layerRecs["rest"] = append(layerRecs["rest"], restRecs)
					}
				}
			}
			// The handler's own time: its span minus the stages the
			// replay timed on the same input (the walk only when the
			// cache could not answer).
			if hd, ok := handlerDur[s.Req]; ok {
				for _, k := range kids[i] {
					if sp[k].Name == "core.walk" && !hit {
						stages += sp[k].dur()
					}
				}
				self = append(self, float64(max(hd-stages, 0))/1e3)
			}
		}
	}
	r.details["replays_dropped"] = dropped
	set := func(name string, v float64) { r.layer[name] = v }
	set("http.transport_us_p50", quantile(transport, 0.5))
	set("server.handler_us_p50", quantile(handler, 0.5))
	set("server.handler_us_p99", quantile(handler, 0.99))
	set("server.handler_self_us_p50", quantile(self, 0.5))
	set("server.decode_us_p50", quantile(decode, 0.5))
	set("server.encode_us_p50", quantile(encode, 0.5))
	set("server.write_handler_us_p50", quantile(whandler, 0.5))
	set("server.write_handler_us_p99", quantile(whandler, 0.99))
	set("cache.lookup_us_p50", quantile(lookup, 0.5))
	set("core.walk_us_p50", quantile(walk, 0.5))
	set("core.walk_us_p99", quantile(walk, 0.99))
	set("core.walk_self_us_p50", quantile(walkSelf, 0.5))
	if walkRecs > 0 {
		set("core.ns_per_record", walkNs/walkRecs)
	}
	for _, k := range layerKeys {
		set("core.layer"+k+".us_p50", quantile(layerUs[k], 0.5))
		set("core.layer"+k+".records", mean(layerRecs[k]))
	}
	set("core.delta_len_mean", mean(deltaLen))
	set("core.fold_s", quantile(fold, 0.5))
	set("core.fold_records", mean(foldRecs))
	set("wal.commit_us_p50", quantile(commit, 0.5))
	set("wal.commit_us_p99", quantile(commit, 0.99))

	var rpr, lpq, ppq []float64
	for i, st := range r.stats {
		if r.results[i] > 0 {
			rpr = append(rpr, float64(st.RecordsEvaluated)/float64(r.results[i]))
		}
		lpq = append(lpq, float64(st.LayersAccessed))
		ppq = append(ppq, float64(st.LayersPruned))
	}
	set("core.records_per_result", mean(rpr))
	set("core.layers_per_query", mean(lpq))
	set("core.layers_pruned_per_query", mean(ppq))
	builds := make([]float64, 0, len(r.setups))
	for _, s := range r.setups {
		builds = append(builds, stageSeconds(s, "core.build"))
	}
	set("core.build_s", median(builds))
}

// output assembles the metrics object of the final line: the end-to-end
// metrics untraced, the per-layer ones (with the traced end-to-end
// numbers) traced.
func (r *runner) output() (map[string]map[string]any, error) {
	out := map[string]map[string]any{}
	defs := endToEnd
	if r.trace {
		defs = perLayer
		for _, m := range endToEnd {
			if v, ok := r.e2e[m.name]; ok {
				r.layer["traced."+m.name] = v
			}
		}
	}
	for _, d := range defs {
		src := r.e2e
		if r.trace {
			src = r.layer
		}
		v, ok := src[d.name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if !r.trace && v <= 0 {
			return nil, fmt.Errorf("metric %s measured as %v", d.name, v)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out, nil
}
