package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fabricgossip/internal/obs"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// Scraping /metrics while the loop records wire traffic over real TCP
// endpoints must be race-free (run with -race) and report the loop's counts;
// once the loop has closed, a scrape fails cleanly instead of hanging.
func TestMetricsScrapeWhileLoopRecords(t *testing.T) {
	const sends = 200
	loop := sim.NewRealScheduler()
	defer loop.Close()
	var reg *obs.Registry
	var wobs *transport.WireObs
	loop.Do(func() {
		reg = obs.NewRegistry()
		wobs = transport.NewWireObs(reg, nil)
	})
	book := transport.StaticAddressBook{}
	eps := make([]*transport.TCPEndpoint, 2)
	for i := range eps {
		ep, err := transport.ListenTCP(wire.NodeID(i), "127.0.0.1:0", book, loop, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		ep.SetObs(wobs)
		book[wire.NodeID(i)] = ep.Addr()
		eps[i] = ep
	}
	loop.Do(func() { eps[1].SetHandler(func(wire.NodeID, wire.Message) {}) })

	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < sends; i++ {
			h := uint64(i)
			loop.Post(func() { _ = eps[0].Send(1, &wire.StateInfo{Height: h}) })
		}
		loop.Do(func() {}) // every Send above has run
	}()

	srv := httptest.NewServer(metricsHandler(loop, reg))
	defer srv.Close()
	scrape := func() string {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d: %s", resp.StatusCode, body)
		}
		return string(body)
	}
	for i := 0; i < 20; i++ {
		if out := scrape(); !strings.Contains(out, "# TYPE wire_msgs_total counter") {
			t.Fatalf("scrape %d lacks the wire counters:\n%s", i, out)
		}
	}

	// Every send is counted on the way out.
	<-sent
	if out := scrape(); !strings.Contains(out, `wire_msgs_total{dir="out"} 200`) {
		t.Fatalf("final scrape does not count %d sends:\n%s", sends, out)
	}

	loop.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("scrape after the loop closed: status %d, want 503", resp.StatusCode)
	}
}
