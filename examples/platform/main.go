// Platform: the full interaction model of Sec. II-A over real HTTP.
//
// A server process publishes the grid + HST; worker agents snap and
// obfuscate their true locations on *their* side of the wire and register;
// task agents do the same when they appear; the server assigns each task
// with HST-Greedy seeing only leaf codes. After assignment, worker and task
// exchange true locations over the private channel (modelled in-process)
// and we report the true travel distances the platform achieved.
//
// Run with: go run ./examples/platform
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"github.com/pombm/pombm"
)

func main() {
	region := pombm.NewRect(pombm.Pt(0, 0), pombm.Pt(200, 200))
	srv, err := pombm.NewServer(region, 64, 64, 0.6, 2020)
	if err != nil {
		log.Fatal(err)
	}
	// Real HTTP loopback: agents only ever see the URL.
	ts := httptest.NewServer(pombm.PlatformHandler(srv))
	defer ts.Close()
	fmt.Printf("server listening at %s\n", ts.URL)

	client, err := pombm.Dial(ts.URL)
	if err != nil {
		log.Fatal(err)
	}
	pub := client.Publication()
	fmt.Printf("publication: N=%d points, D=%d, ε=%g\n",
		pub.Tree.NumPoints(), pub.Tree.Depth(), pub.Epsilon)

	// Worker fleet: each agent holds its true location privately.
	workerLocs := pombm.UniformPoints(region, 400, 31)
	workers := make(map[string]pombm.Point, len(workerLocs))
	obf, err := pombm.NewObfuscator(pub, 77)
	if err != nil {
		log.Fatal(err)
	}
	for i, loc := range workerLocs {
		w := pombm.Worker{ID: fmt.Sprintf("courier-%03d", i), Loc: loc}
		if err := w.Register(client, obf); err != nil {
			log.Fatal(err)
		}
		workers[w.ID] = w.Loc
	}
	fmt.Printf("registered %d workers (server saw only obfuscated leaf codes)\n", len(workers))

	// Tasks appear dynamically; the private channel reveals the true task
	// location to the assigned worker only.
	taskLocs := pombm.UniformPoints(region, 250, 32)
	var totalTravel float64
	assigned := 0
	for i, loc := range taskLocs {
		t := pombm.Task{ID: fmt.Sprintf("order-%03d", i), Loc: loc}
		workerID, ok, err := t.Submit(client, obf)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			continue
		}
		assigned++
		totalTravel += workers[workerID].Dist(t.Loc) // private-channel exchange
	}

	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assigned %d/%d tasks; mean true travel distance %.1f units\n",
		assigned, len(taskLocs), totalTravel/float64(assigned))
	fmt.Printf("server stats: %+v\n", stats)

	// The server never handled a true coordinate: the only location-bearing
	// fields on the wire were obfuscated leaf codes.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("done — all communication went over HTTP with client-side obfuscation")
}
