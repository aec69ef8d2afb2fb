package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
)

// The yardstick reads the host's speed while a repetition runs. The
// reference box is a few cores of a shared host whose speed moves by 15–25 %
// for minutes at a time and by more for tens of milliseconds (README.md,
// "Steadiness"); every timing of one commit moves with it, all workloads at
// once. So a repetition interleaves its timed segments with chunks of fixed
// work that never changes with the repository — none of it calls the
// repository's code — and states its timings at the speed the chunks read,
// relative to the reference box at rest.
//
// Two kernels, because the workloads are two kinds of work: sorting
// pseudo-random integers (branchy computing out of the nearest cache, what
// the engine and the batch solver do) and an HTTP echo over loopback
// (system calls, the scheduler's wake-ups and net/http, what the lifecycle
// workloads do). The host's speed index is the geometric mean of the two
// kernels' slow-downs, for every workload alike: one definition, nothing
// tuned per workload.
type yardstick struct {
	url     string
	hc      *http.Client
	payload []byte
	closers []func()
	bufs    [][]int
	seeds   []uint64
	// What the kernels read on the reference box at rest, per sorted element
	// and per echo round trip. They only fix the scale: an index of 1 is
	// that box at rest.
	cpuRefNs, netRefNs float64
}

const (
	sortRounds = 48 // × sortLen elements: ≈ 11 ms a chunk
	sortLen    = 4096
	echoTrips  = 192 // ≈ 8 ms a chunk

	// chunkEveryNs: a chunk follows every stretch of this much timed work.
	chunkEveryNs = 100e6
)

// newYardstick starts the echo server; one goroutine per client will run
// the kernels at once, as the workloads run.
func newYardstick(clients int) (*yardstick, error) {
	y := &yardstick{payload: []byte(`{"task_id":"t","code":"AAECAwQFBgcICQ==","epoch":1}`), cpuRefNs: 56, netRefNs: 40000}
	if clients == 1 { // batch-window's one driver: nothing shares the caches or the echo server
		y.cpuRefNs, y.netRefNs = 53, 26000
	}
	for id := 0; id < clients; id++ {
		y.bufs = append(y.bufs, make([]int, sortLen))
		y.seeds = append(y.seeds, uint64(id+1))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed at Close
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: maxClients}
	y.hc = &http.Client{Transport: tr}
	y.url = "http://" + ln.Addr().String() + "/echo"
	y.closers = []func(){tr.CloseIdleConnections, func() { hs.Close(); <-done }}
	return y, nil
}

func (y *yardstick) close() {
	for _, f := range y.closers {
		f()
	}
}

// chunk is one timing of each kernel: nanoseconds per sorted element and
// per echo round trip.
type chunk struct{ cpu, net float64 }

func (y *yardstick) chunk() (chunk, error) {
	errs := make([]error, len(y.bufs))
	par := func(f func(id int) error) float64 {
		var wg sync.WaitGroup
		t0 := now()
		for id := range y.bufs {
			wg.Add(1)
			go func() { defer wg.Done(); errs[id] = f(id) }()
		}
		wg.Wait()
		return float64(now() - t0)
	}
	var c chunk
	c.cpu = par(func(id int) error {
		buf, s := y.bufs[id], y.seeds[id]
		for round := 0; round < sortRounds; round++ {
			for i := range buf {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				buf[i] = int(s >> 16)
			}
			sort.Ints(buf)
		}
		y.seeds[id] = s
		return nil
	}) / (sortRounds * sortLen)
	c.net = par(func(id int) error {
		for i := 0; i < echoTrips; i++ {
			resp, err := y.hc.Post(y.url, "application/json", bytes.NewReader(y.payload))
			if err != nil {
				return fmt.Errorf("yardstick echo: %w", err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("yardstick echo: %w", err)
			}
		}
		return nil
	}) / echoTrips
	return c, errors.Join(errs...)
}

// index is how much slower than the reference box at rest the host ran
// while the chunks were taken (1.2 = everything takes 1.2 times as long):
// the geometric mean of the two kernels' slow-downs, each read off the
// faster half of its chunks — the same half of the time the segments'
// figures are read off (quieterHalf).
func (y *yardstick) index(chunks []chunk) float64 {
	if len(chunks) == 0 {
		return 1
	}
	cpu, net := make([]float64, len(chunks)), make([]float64, len(chunks))
	for i, c := range chunks {
		cpu[i], net[i] = c.cpu, c.net
	}
	return math.Sqrt(fasterHalfMean(cpu) / y.cpuRefNs * fasterHalfMean(net) / y.netRefNs)
}

func fasterHalfMean(xs []float64) float64 {
	sort.Float64s(xs)
	xs = xs[:(len(xs)+1)/2]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
