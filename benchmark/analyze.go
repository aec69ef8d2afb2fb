package main

import "sort"

// analyzeSpans turns one traced repetition's spans into per-layer metrics.
// Only spans that started inside the timed region [lo, hi) count, except
// the rotation spans, which all lie after it.
//
// Attribution: a handler span names the client span that caused it (the id
// rode in the request header), and a node handler span names its node
// request, so those pairs subtract exactly. Spans below a handler — engine
// calls under platform.Handler, node requests under the coordinator —
// cannot name a parent from outside (the program's Core and NodeConn
// interfaces carry no context, and one ops envelope serves several
// requests), so they are charged to a handler by overlap, under the
// self-time union rule.
func analyzeSpans(sp spec, spans []Span, lo, hi int64, tasks int, layer map[string]float64) {
	byKind := make([][]Span, numSpanKinds)
	byID := make(map[uint32]Span, len(spans))
	for _, s := range spans {
		if s.Kind == kRotatePrepare || s.Kind == kRotateCommit || s.Kind == kCoreSwap ||
			s.Kind == kNodeReqPrepare || s.Kind == kNodeReqCommit || (s.Start >= lo && s.Start < hi) {
			byKind[s.Kind] = append(byKind[s.Kind], s)
			byID[s.ID] = s
		}
	}
	// medianDur is the median duration of the spans of the given kinds in
	// units of scale nanoseconds.
	medianDur := func(scale float64, kinds ...spanKind) (float64, bool) {
		var d []float64
		for _, k := range kinds {
			for _, s := range byKind[k] {
				d = append(d, float64(s.dur())/scale)
			}
		}
		return median(d), len(d) > 0
	}
	set := func(name string, v float64, ok bool) {
		if ok {
			layer[name] = v
		}
	}

	// engine: the spans around the calls into it.
	v, ok := medianDur(1, kCoreAssign)
	set("engine.assign_ns", v, ok)
	v, ok = medianDur(1, kCoreInsert, kCoreAddCap)
	set("engine.insert_ns", v, ok)
	v, ok = medianDur(1, kCoreRemove)
	set("engine.remove_ns", v, ok)
	var b64, b512 []float64
	for _, s := range byKind[kCoreBatch] {
		switch s.N {
		case 64:
			b64 = append(b64, float64(s.dur())/1e3/64)
		case 512:
			b512 = append(b512, float64(s.dur())/1e3/512)
		}
	}
	set("engine.batch64_us_per_task", median(b64), len(b64) > 0)
	set("engine.batch512_us_per_task", median(b512), len(b512) > 0)

	// platform: handler self time = handler span − engine spans inside it;
	// transport = client span − the handler span it caused.
	core := merged(byKind[kCoreAssign], byKind[kCoreInsert], byKind[kCoreAddCap], byKind[kCoreRemove])
	self := func(handlers, below []Span) (float64, bool) {
		longest := int64(0)
		for _, s := range below {
			longest = max(longest, s.dur())
		}
		d := make([]float64, 0, len(handlers))
		for _, h := range handlers {
			d = append(d, float64(selfTime(h, overlapping(below, h.Start, h.End, longest))))
		}
		return median(d) / 1e3, len(d) > 0
	}
	if sp.name != "cluster-lifecycle" {
		v, ok = self(byKind[kHandlerSubmit], core)
		set("platform.submit_self_us", v, ok)
		v, ok = self(byKind[kHandlerRelease], core)
		set("platform.release_self_us", v, ok)
		v, ok = self(byKind[kHandlerRegister], core)
		set("platform.register_self_us", v, ok)
		var transport []float64
		for _, h := range byKind[kHandlerSubmit] {
			if c, found := byID[h.Parent]; found && c.Kind == kClientSubmit {
				transport = append(transport, float64(c.dur()-h.dur()))
			}
		}
		set("platform.transport_us", median(transport)/1e3, len(transport) > 0)
	} else {
		// cluster: the coordinator's handler minus the node requests that
		// overlap it; node round trip minus the node handler it caused.
		nodeReqs := merged(byKind[kNodeReqOps], byKind[kNodeReqMinID], byKind[kNodeReqPopMin], byKind[kNodeReqOther])
		v, ok = self(byKind[kHandlerSubmit], nodeReqs)
		set("cluster.coord_self_us", v, ok)
		v, ok = medianDur(1e3, kNodeReqOps, kNodeReqMinID, kNodeReqPopMin)
		set("cluster.node_rtt_us", v, ok)
		var handler, transport []float64
		for _, h := range byKind[kNodeHandler] {
			if q, found := byID[h.Parent]; found && q.Kind != kNodeReqOther {
				handler = append(handler, float64(h.dur()))
				transport = append(transport, float64(q.dur()-h.dur()))
			}
		}
		set("cluster.node_handler_us", median(handler)/1e3, len(handler) > 0)
		set("cluster.node_transport_us", median(transport)/1e3, len(transport) > 0)
		layer["cluster.node_reqs_per_task"] = float64(len(nodeReqs)) / float64(tasks)
		ops := 0
		for _, s := range byKind[kNodeReqOps] {
			ops += int(s.N)
		}
		set("cluster.ops_per_envelope", float64(ops)/float64(max(len(byKind[kNodeReqOps]), 1)), len(byKind[kNodeReqOps]) > 0)
		// A rotation's distributed phases, as the stretch of the commit
		// that node prepare (resp. commit) requests cover.
		covered := func(below []Span) (float64, bool) {
			var d []float64
			for _, rot := range byKind[kRotateCommit] {
				inside := overlapping(below, rot.Start, rot.End, rot.dur())
				d = append(d, float64(rot.dur()-selfTime(rot, inside))/1e6)
			}
			return median(d), len(d) > 0 && len(below) > 0
		}
		v, ok = covered(byKind[kNodeReqPrepare])
		set("cluster.rotate_prepare_ms", v, ok)
		v, ok = covered(byKind[kNodeReqCommit])
		set("cluster.rotate_commit_ms", v, ok)
	}

	// Rotation phases as the harness timed them, and the engine swap inside
	// the commit (on engine-churn the commit is the swap).
	if sp.name != "engine-churn" {
		v, ok = medianDur(1e6, kRotatePrepare)
		set("platform.rotate_prepare_ms", v, ok)
		v, ok = medianDur(1e6, kRotateCommit)
		set("platform.rotate_commit_ms", v, ok)
		v, ok = medianDur(1e6, kCoreSwap)
		set("engine.swap_ms", v, ok)
	} else {
		v, ok = medianDur(1e6, kRotateCommit)
		set("engine.swap_ms", v, ok)
	}
}

// merged returns the given start-sorted span lists as one start-sorted list.
func merged(lists ...[]Span) []Span {
	var out []Span
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
