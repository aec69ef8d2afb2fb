package main

import "sort"

// The timed region is played in short segments — a fixed number of cycles
// each, about 25 ms on the reference box — with a barrier between them: the
// clients of one segment all stop before the next one starts. On a shared
// host most of the run-to-run difference of one commit is a neighbour
// taking part of a core for tens of milliseconds at a time; a segment is
// short enough to fall mostly inside or mostly outside such a burst, so the
// faster half of a repetition's segments is the program on the host left
// alone, and that half repeats where the whole does not (README.md,
// "Steadiness"). Which cycles a segment plays never depends on time.

// segment is one stretch of the timed region.
type segment struct {
	wall         int64 // common start to the last client finishing
	tasks        int
	task, worker Histogram
}

func (s *segment) tput() float64 { return float64(s.tasks) / (float64(s.wall) / 1e9) }

// timed is what one repetition's timed region measured.
type timed struct {
	segs   []segment
	chunks []chunk // the yardstick's readings: before, between and after the segments
	use    procUse // the segments' share of the process's resources
	lo, hi int64   // the region on the span clock
}

// segmentBounds cuts cycles [warm, total) into equal segments;
// batch-window's fall on whole periods of its arrival pattern.
func segmentBounds(sp spec, warm, total, s, segments int) (lo, hi int) {
	unit := 1
	if sp.tape == "batch" {
		unit = batchPeriod
	}
	units := (total - warm) / unit
	lo = warm + units*s/segments*unit
	hi = warm + units*(s+1)/segments*unit
	if s == segments-1 {
		hi = total
	}
	return lo, hi
}

// timedRegion plays cycles [o.warm, o.total) segment by segment, with a
// yardstick chunk after every chunkEveryNs of timed work.
func (r *run) timedRegion(clients []*client, o repOpts) (*timed, error) {
	n := max((o.total-o.warm)/r.sp.segmentCycles, 1)
	tr := &timed{segs: make([]segment, n)}
	tr.lo = now()
	yc, err := o.yard.chunk()
	if err != nil {
		return nil, err
	}
	tr.chunks = append(tr.chunks, yc)
	p0 := readProc()
	var sinceChunk int64
	for s := range tr.segs {
		seg := &tr.segs[s]
		lo, hi := segmentBounds(r.sp, o.warm, o.total, s, n)
		for _, c := range clients {
			seg.tasks -= c.tasks
		}
		seg.wall = r.phase(clients, lo, hi)
		for _, c := range clients {
			seg.tasks += c.tasks
			seg.task.Merge(&c.task)
			seg.worker.Merge(&c.worker)
			c.task, c.worker = Histogram{}, Histogram{}
		}
		if sinceChunk += seg.wall; sinceChunk >= chunkEveryNs || s == n-1 {
			tr.use.add(p0, readProc())
			if yc, err = o.yard.chunk(); err != nil {
				return nil, err
			}
			tr.chunks = append(tr.chunks, yc)
			p0 = readProc()
			sinceChunk = 0
		}
	}
	tr.hi = now()
	return tr, nil
}

// quieterHalf returns the indexes of the faster half of the segments, by
// time per task.
func quieterHalf(segs []segment) []int {
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	perTask := func(i int) float64 { return float64(segs[i].wall) / float64(max(segs[i].tasks, 1)) }
	sort.SliceStable(order, func(a, b int) bool { return perTask(order[a]) < perTask(order[b]) })
	return order[:(len(order)+1)/2]
}

// pooled folds the chosen segments (nil = all of them) into one: their
// tasks over their wall time, and their histograms merged.
func (tr *timed) pooled(which []int) *segment {
	out := &segment{}
	fold := func(s *segment) {
		out.wall += s.wall
		out.tasks += s.tasks
		out.task.Merge(&s.task)
		out.worker.Merge(&s.worker)
	}
	if which == nil {
		for i := range tr.segs {
			fold(&tr.segs[i])
		}
	}
	for _, i := range which {
		fold(&tr.segs[i])
	}
	return out
}
