// The platform soak suites drive platform.Server instead of the bare
// engine: the registry — slot table, id index, lifetime-ε ledger — is what a
// long-lived server accumulates, and only the server's own operations
// (Register, Submit, Release, Withdraw, Rotate) exercise it. A suite loads a
// population, then runs many short epochs: assignments with fresh-code
// releases, departures, arrivals of returning and of never-seen ids, and a
// full rotation with every idle worker re-reporting while a handful stay
// busy across it. After every rotation it reads the registry's footprint off
// the server's own stats and fails if the slot table or its bytes exceed
// what live workers plus one epoch's churn account for — the bound that
// makes the slot space independent of how long the server has been up.
package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// platformSoakEpoch is one epoch's registry reading, taken around its
// closing rotation.
type platformSoakEpoch struct {
	Epoch int64 `json:"epoch"`
	// LiveWorkers is the online population (idle + busy) at the rotation;
	// ChurnRegistrations the registrations the epoch saw, each of which
	// opened a slot.
	LiveWorkers        int `json:"live_workers"`
	ChurnRegistrations int `json:"churn_registrations"`
	// SlotTableLenBefore is read just before the commit (live + the epoch's
	// closed stints), SlotTableLen and the rest just after.
	SlotTableLenBefore     int     `json:"slot_table_len_before"`
	SlotTableLen           int     `json:"slot_table_len"`
	RegistryBytes          int     `json:"registry_bytes"`
	RegistryBytesPerWorker float64 `json:"registry_bytes_per_worker"`
	DepartedLedgerIDs      int     `json:"departed_ledger_ids"`
	RotateSeconds          float64 `json:"rotate_seconds"`
}

type platformSoakReport struct {
	Suite  soakSuite  `json:"suite"`
	Config soakConfig `json:"config"`

	LoadSeconds       float64 `json:"load_seconds"`
	LoadWorkersPerSec float64 `json:"load_workers_per_sec"`
	ChurnSeconds      float64 `json:"churn_seconds"`
	AssignOps         int64   `json:"assign_ops"`
	WithdrawOps       int64   `json:"withdraw_ops"`
	ReturningOps      int64   `json:"register_returning_ops"`
	FreshOps          int64   `json:"register_fresh_ops"`

	Epochs []platformSoakEpoch `json:"epochs"`
	// The whole process's live heap after the last rotation, driver tables
	// (worker names, generations) included.
	FinalHeapBytes          int64   `json:"final_heap_bytes"`
	FinalHeapBytesPerWorker float64 `json:"final_heap_bytes_per_worker"`
}

// registryBytesBound is the most a table of n slots may allocate here: 40 B
// a slot — the 16 B record, the packed code (the lane's rotated trees all
// have depth 10 and degree 14–29, so 5, 6 or 7 B: a digit pair takes 8 bits
// up to degree 16, 9 up to 22, 10 up to 32), an id ("w" and at most seven
// digits) behind its length byte in the id slab, and the id index, whose
// 4 B entries cost 5–7.5 B (a rotation sizes it at 53–80 % load, and an
// epoch's churn is too small to double it) — plus one 1,024-slot page of
// records and 7 B codes, one 16 KiB id chunk of slack, the smallest index
// and a degree-32 pair table.
func registryBytesBound(n int) int { return 40*n + 1024*(16+7) + 16<<10 + 4*24 + 2*32*32 }

// platformSoak is the driver's book of who is where.
type platformSoak struct {
	srv   *platform.Server
	codes *codeGen
	names []string // id → external worker id
	gens  []uint32 // id → code generation
	idle  []int    // online, unassigned ids
	at    []int    // id → position in idle, −1 when not idle
	away  []int    // offline ids, free to return
	busy  []int    // assigned and held across the next rotation
	epoch int64
}

func (p *platformSoak) freshCode(id int) []byte {
	p.gens[id]++
	return []byte(p.codes.code(id, p.gens[id]))
}

func (p *platformSoak) setIdle(id int) {
	p.at[id] = len(p.idle)
	p.idle = append(p.idle, id)
}

func (p *platformSoak) unsetIdle(id int) {
	i, last := p.at[id], p.idle[len(p.idle)-1]
	p.idle[i], p.at[last] = last, i
	p.idle = p.idle[:len(p.idle)-1]
	p.at[id] = -1
}

// register brings the id online; a never-seen id is named first.
func (p *platformSoak) register(id int) error {
	if id == len(p.names) {
		p.names = append(p.names, "w"+strconv.Itoa(id))
		p.gens = append(p.gens, 0)
		p.at = append(p.at, -1)
	}
	resp := p.srv.Register(platform.RegisterRequest{WorkerID: p.names[id], Code: p.freshCode(id), Epoch: p.epoch})
	if !resp.OK {
		return fmt.Errorf("register %s: %s", p.names[id], resp.Reason)
	}
	p.setIdle(id)
	return nil
}

// assign submits one task; the assigned worker either re-reports at once
// or, when hold is set, stays busy until after the next rotation.
func (p *platformSoak) assign(task hst.Code, hold bool) error {
	resp := p.srv.Submit(platform.TaskRequest{Code: []byte(task), Epoch: p.epoch})
	if !resp.Assigned {
		return fmt.Errorf("submit with %d idle workers: %s", len(p.idle), resp.Reason)
	}
	id, err := strconv.Atoi(resp.WorkerID[1:])
	if err != nil || id >= len(p.names) || p.at[id] < 0 {
		return fmt.Errorf("submit answered %q, not an idle worker", resp.WorkerID)
	}
	if hold {
		p.unsetIdle(id)
		p.busy = append(p.busy, id)
		return nil
	}
	return p.release(id)
}

func (p *platformSoak) release(id int) error {
	resp := p.srv.Release(platform.ReleaseRequest{WorkerID: p.names[id], Code: p.freshCode(id), Epoch: p.epoch})
	if !resp.OK {
		return fmt.Errorf("release %s: %s", p.names[id], resp.Reason)
	}
	return nil
}

// rotate re-reports every idle worker under the next tree and commits.
func (p *platformSoak) rotate() error {
	prep := p.srv.PrepareRotate(platform.PrepareRotateRequest{})
	if !prep.OK {
		return fmt.Errorf("prepare rotation: %s", prep.Reason)
	}
	p.codes.tree = prep.Tree
	reports := make([]platform.WorkerReport, len(p.idle))
	for i, id := range p.idle {
		reports[i] = platform.WorkerReport{WorkerID: p.names[id], Code: p.freshCode(id)}
	}
	resp := p.srv.Rotate(platform.RotateRequest{Epoch: prep.Epoch, Reports: reports})
	if !resp.OK || resp.Rotated != len(p.idle) || len(resp.Dropped) != 0 || len(resp.Parked) != 0 || resp.Skipped != 0 {
		return fmt.Errorf("rotation to epoch %d: ok=%v rotated=%d of %d dropped=%d parked=%d skipped=%d %s",
			prep.Epoch, resp.OK, resp.Rotated, len(p.idle), len(resp.Dropped), len(resp.Parked), resp.Skipped, resp.Reason)
	}
	p.epoch = prep.Epoch
	return nil
}

func runPlatformSoak(suite soakSuite, gridCols, shards int, seed uint64, jsonPath string) error {
	// A lifetime budget nobody exhausts: the ledger and its departed side
	// are on the path, parking is not.
	srv, err := platform.NewServer(workload.SyntheticRegion, gridCols, gridCols, 0.6, seed,
		platform.WithShards(shards), platform.WithLifetimeBudget(1e12))
	if err != nil {
		return err
	}
	pub := srv.Publication()
	rep := platformSoakReport{Suite: suite, Config: newSoakConfig(seed, gridCols, srv.Core().Shards())}
	fmt.Printf("soak %s: %d workers through platform.Server over N=%d D=%d c=%d, %d shards, %d rotations\n",
		suite.Name, suite.Workers, pub.Tree.NumPoints(), pub.Tree.Depth(), pub.Tree.Degree(), rep.Config.Shards, suite.Rotations)

	p := &platformSoak{srv: srv, codes: &codeGen{tree: pub.Tree, seed: seed}, epoch: pub.Epoch}
	t0 := time.Now()
	for id := 0; id < suite.Workers; id++ {
		if err := p.register(id); err != nil {
			return err
		}
	}
	rep.LoadSeconds = time.Since(t0).Seconds()
	rep.LoadWorkersPerSec = float64(suite.Workers) / rep.LoadSeconds
	fmt.Printf("  load: %d workers in %.2fs (%.0f workers/sec)\n", suite.Workers, rep.LoadSeconds, rep.LoadWorkersPerSec)

	src := rng.New(seed).Derive("soak-platform")
	taskSrc, churnSrc := src.Derive("tasks"), src.Derive("churn")
	t0 = time.Now()
	for r := 0; r < suite.Rotations; r++ {
		liveStart := len(p.idle) + len(p.busy)
		registers := 0
		for tick := 0; tick < suite.Ticks; tick++ {
			// The epoch's last few assignments stay busy across the rotation,
			// so every rotation carries stints as well as renumbering them.
			holdFrom := suite.AssignsPerTick
			if tick == suite.Ticks-1 {
				holdFrom -= min(8, suite.AssignsPerTick)
			}
			for a := 0; a < suite.AssignsPerTick; a++ {
				task := p.codes.tree.CodeOf(taskSrc.Intn(p.codes.tree.NumPoints()))
				if err := p.assign(task, a >= holdFrom); err != nil {
					return fmt.Errorf("epoch %d tick %d: %w", p.epoch, tick, err)
				}
				rep.AssignOps++
			}
			for m := 0; m < suite.MovesPerTick; m++ {
				id := p.idle[churnSrc.Intn(len(p.idle))]
				if resp := srv.Withdraw(platform.WithdrawRequest{WorkerID: p.names[id]}); !resp.OK {
					return fmt.Errorf("epoch %d tick %d: withdraw %s: %s", p.epoch, tick, p.names[id], resp.Reason)
				}
				p.unsetIdle(id)
				p.away = append(p.away, id)
				rep.WithdrawOps++
			}
			for m := 0; m < suite.MovesPerTick; m++ {
				// Arrivals alternate between a returning id and a new one.
				id := len(p.names)
				if m%2 == 0 {
					i := churnSrc.Intn(len(p.away))
					id = p.away[i]
					p.away[i] = p.away[len(p.away)-1]
					p.away = p.away[:len(p.away)-1]
					rep.ReturningOps++
				} else {
					rep.FreshOps++
				}
				if err := p.register(id); err != nil {
					return fmt.Errorf("epoch %d tick %d: %w", p.epoch, tick, err)
				}
				registers++
			}
		}

		before := srv.Stats()
		tr := time.Now()
		if err := p.rotate(); err != nil {
			return err
		}
		d := time.Since(tr)
		st := srv.Stats()
		live := len(p.idle) + len(p.busy)
		e := platformSoakEpoch{
			Epoch:                  st.Epoch,
			LiveWorkers:            live,
			ChurnRegistrations:     registers,
			SlotTableLenBefore:     before.SlotTableLen,
			SlotTableLen:           st.SlotTableLen,
			RegistryBytes:          st.RegistryBytes,
			RegistryBytesPerWorker: float64(st.RegistryBytes) / float64(live),
			DepartedLedgerIDs:      st.DepartedLedgerIDs,
			RotateSeconds:          d.Seconds(),
		}
		rep.Epochs = append(rep.Epochs, e)
		// The bound: a slot per live worker plus one per registration the
		// epoch saw, before the rotation; a slot per live worker after it.
		switch {
		case before.SlotTableLen > liveStart+registers:
			return fmt.Errorf("epoch %d: slot table grew to %d before its rotation; %d live + %d registrations allow %d",
				st.Epoch-1, before.SlotTableLen, liveStart, registers, liveStart+registers)
		case before.RegistryBytes > registryBytesBound(liveStart+registers):
			return fmt.Errorf("epoch %d: registry grew to %d B before its rotation; %d slots allow %d",
				st.Epoch-1, before.RegistryBytes, liveStart+registers, registryBytesBound(liveStart+registers))
		case st.SlotTableLen != live:
			return fmt.Errorf("epoch %d: slot table holds %d slots after the rotation, %d workers are live", st.Epoch, st.SlotTableLen, live)
		case st.RegistryBytes > registryBytesBound(live):
			return fmt.Errorf("epoch %d: registry is %d B after the rotation; %d slots allow %d",
				st.Epoch, st.RegistryBytes, live, registryBytesBound(live))
		case st.AvailableWorkers != len(p.idle):
			return fmt.Errorf("epoch %d: %d workers available, the driver has %d idle", st.Epoch, st.AvailableWorkers, len(p.idle))
		}
		if r%10 == 9 || r == suite.Rotations-1 {
			fmt.Printf("  epoch %d: %d live, slot table %d → %d, registry %.1f B/worker, %d departed ids, rotate %.2fs\n",
				e.Epoch, live, e.SlotTableLenBefore, e.SlotTableLen, e.RegistryBytesPerWorker, e.DepartedLedgerIDs, e.RotateSeconds)
		}
		// The held workers finish under the new epoch.
		for _, id := range p.busy {
			if err := p.release(id); err != nil {
				return err
			}
			p.setIdle(id)
		}
		p.busy = p.busy[:0]
	}
	rep.ChurnSeconds = time.Since(t0).Seconds()

	st := srv.Stats()
	if want := int(rep.FreshOps) + suite.Workers; st.RegisteredWorkers != want {
		return fmt.Errorf("registered_workers is %d, the driver named %d ids", st.RegisteredWorkers, want)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.FinalHeapBytes = int64(ms.HeapAlloc)
	rep.FinalHeapBytesPerWorker = float64(ms.HeapAlloc) / float64(len(p.idle))
	fmt.Printf("  %d rotations, %d assigns, %d withdrawals, %d returning + %d fresh registrations in %.2fs; final heap %s (%.1f B/worker, driver tables included)\n",
		suite.Rotations, rep.AssignOps, rep.WithdrawOps, rep.ReturningOps, rep.FreshOps, rep.ChurnSeconds,
		mb(rep.FinalHeapBytes), rep.FinalHeapBytesPerWorker)

	return writeSoakReport(jsonPath, suite.Name, &rep)
}
