package main

// layerMetrics derives the per-layer metrics from the traced window's
// spans. Every metric is reported for every workload; a layer the
// workload does not reach reads 0. Ratios name their base in the
// comment beside them.
//
// v1 is the untraced window, v2 the traced one, tb/ta the /metrics
// scrapes around v2, and rp the replayer that recorded each read's
// elapsed_us.
func layerMetrics(spans []span, v1, v2 *verdict, tb, ta map[string]float64, rp *replayer) map[string]metric {
	self := selfTimes(spans)
	by := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Op > 0 || isSetupSpan(s.Name) {
			by[s.Name] = append(by[s.Name], s)
		}
	}
	const ms, us = 1e6, 1e3
	meanDur := func(name string, scale float64) float64 {
		ss := by[name]
		var t int64
		for _, s := range ss {
			t += s.dur()
		}
		return ratio(float64(t), float64(len(ss))) / scale
	}
	sumDur := func(ss []*span) (t int64) {
		for _, s := range ss {
			t += s.dur()
		}
		return t
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// server: the front handler as the middleware sees it.
	handles := by["server.handle"]
	var unreported float64
	var nUnreported int
	var respBytes int64
	for _, h := range handles {
		respBytes += h.Bytes
		if us, ok := rp.elapsedOf(h.Op); ok {
			unreported += float64(h.dur()) - float64(us)*1e3
			nUnreported++
		}
	}
	var clientSelf int64
	for _, c := range by["client.request"] {
		clientSelf += self[c.ID]
	}
	hits := ta["sqlpp_plan_cache_hits_total"] - tb["sqlpp_plan_cache_hits_total"]
	misses := ta["sqlpp_plan_cache_misses_total"] - tb["sqlpp_plan_cache_misses_total"]
	put("server.handle_ms", meanDur("server.handle", ms), "ms")
	put("server.unreported_ms", ratio(unreported, float64(nUnreported))/ms, "ms")
	put("server.plancache_hit_ratio", ratio(hits, hits+misses), "ratio")                                // base: hits + misses
	put("server.misses_per_write", ratio(float64(rp.replans.Load()), float64(len(v2.writes))), "ratio") // parameterized reads that missed, per write
	put("server.response_kb", ratio(float64(respBytes), float64(len(handles)))/1024, "KiB")
	put("client.overhead_ms", ratio(float64(clientSelf), float64(len(by["client.request"])))/ms, "ms")

	// compile: per compiled request (a plan-cache miss).
	put("parser.parse_us", meanDur("parser.parse", us), "us")
	put("rewrite.rewrite_us", meanDur("rewrite.rewrite", us), "us")
	put("sema.analyze_us", meanDur("sema.analyze", us), "us")
	put("plan.optimize_us", meanDur("plan.optimize", us), "us")
	put("sqlpp.prepare_us", meanDur("sqlpp.prepare", us), "us")

	// exec: per replayed read.
	encodes := by["datafmt.encode"]
	reads := len(encodes)
	var rowsOut, examined, probes, idxHits, encBytes, encAllocs int64
	for _, e := range encodes {
		rowsOut += e.Rows
		encBytes += e.Bytes
		encAllocs += e.Allocs
	}
	for _, c := range by["exec.counts"] {
		examined += c.Examined
		probes += c.Probes
		idxHits += c.Hits
	}
	encNS := sumDur(encodes)
	var readHandleNS int64
	for _, h := range handles {
		if _, ok := rp.elapsedOf(h.Op); ok {
			readHandleNS += h.dur()
		}
	}
	put("exec.ms", ratio(float64(sumDur(by["exec"])), float64(reads))/ms, "ms")
	put("exec.rows_out", ratio(float64(rowsOut), float64(reads)), "rows")
	put("exec.rows_examined_per_row_out", ratio(float64(examined), float64(rowsOut)), "ratio") // base: result rows
	put("index.probes_per_op", ratio(float64(probes), float64(reads)), "count")
	put("index.hits_per_probe", ratio(float64(idxHits), float64(probes)), "ratio") // base: probes

	// encode: per replayed read.
	put("datafmt.encode_ms", ratio(float64(encNS), float64(reads))/ms, "ms")
	put("datafmt.encode_ns_per_byte", ratio(float64(encNS), float64(encBytes)), "ns/B")
	put("datafmt.encode_allocs_per_row", ratio(float64(encAllocs), float64(rowsOut)), "allocs/row")
	put("datafmt.encode_share", ratio(float64(encNS), float64(readHandleNS)), "ratio") // base: read handler time

	// write path: appends per write; builds and decode once at set-up.
	put("catalog.append_ms", meanDur("catalog.append", ms), "ms")
	put("stats.extend_ms", meanDur("stats.extend", ms), "ms")
	put("stats.build_ms", meanDur("stats.build", ms), "ms")
	put("index.build_ms", meanDur("index.build", ms), "ms")
	put("datafmt.decode_ms", meanDur("datafmt.decode", ms), "ms")

	// shard: calls are the decorator's spans, data-node time the data
	// node's middleware, merge the coordinator handler's self time.
	calls := by["shard.call"]
	nodeSpans := by["datanode.handle"]
	fanout := map[int64]int64{}
	for _, c := range calls {
		fanout[c.Op] = max(fanout[c.Op], c.dur())
	}
	var fanSum, mergeSum, accountedHandle int64
	for _, h := range handles {
		if f, ok := fanout[h.Op]; ok {
			fanSum += f
			mergeSum += self[h.ID]
			accountedHandle += h.dur()
		}
	}
	nodeIn := map[int64][][2]int64{}
	var partialBytes int64
	for _, n := range nodeSpans {
		nodeIn[n.Parent] = append(nodeIn[n.Parent], [2]int64{n.Start, n.End})
		partialBytes += n.Bytes
	}
	var wire int64
	for _, c := range calls {
		wire += c.dur() - covered(c.Start, c.End, nodeIn[c.ID])
	}
	queries := float64(len(fanout))
	retries := (ta["sqlpp_shard_retries_total"] - tb["sqlpp_shard_retries_total"]) + (ta["sqlpp_shard_hedges_total"] - tb["sqlpp_shard_hedges_total"])
	attempts := 0.0
	if len(calls) > 0 {
		attempts = 1 + retries/float64(len(calls)) // base: shard calls
	}
	put("shard.fanout_ms", ratio(float64(fanSum), queries)/ms, "ms")
	put("shard.call_ms", meanDur("shard.call", ms), "ms")
	put("shard.calls_per_query", ratio(float64(len(calls)), queries), "count")
	put("shard.attempts_per_call", attempts, "count")
	put("shard.datanode_ms", meanDur("datanode.handle", ms), "ms")
	put("shard.wire_ms", ratio(float64(wire), float64(len(calls)))/ms, "ms")
	put("shard.merge_ms", ratio(float64(mergeSum), queries)/ms, "ms")
	put("shard.partial_kb", ratio(float64(partialBytes), float64(len(nodeSpans)))/1024, "KiB")
	put("shard.accounted_ratio", ratio(float64(fanSum+mergeSum), float64(accountedHandle)), "ratio") // base: coordinator handler time

	// runtime and client, from the untraced window.
	put("runtime.gc_cycles_per_kop", ratio(float64(v1.w.gcCycles), float64(v1.attempted)/1000), "count")
	put("trace.overhead_ratio", ratio(v1.throughput(), v2.throughput()), "ratio") // untraced ÷ traced throughput
	put("client.failed_op_ratio", ratio(float64(v1.failed+v2.failed), float64(v1.attempted+v2.attempted)), "ratio")
	put("client.write_p50_ms", v1.writeP(0.5), "ms")
	put("client.write_p90_ms", v1.writeP(0.9), "ms")
	return m
}

func isSetupSpan(name string) bool {
	switch name {
	case "datafmt.decode", "stats.build", "index.build":
		return true
	}
	return false
}

// ratio is a/b, or 0 when b is 0 (the layer was not reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
