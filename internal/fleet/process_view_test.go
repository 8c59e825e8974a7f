package fleet

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"privinf/internal/delphi"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// scrape fetches /metrics and returns every series keyed by its
// `name{labels}` text.
func scrape(t *testing.T, d *serve.DebugServer) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		series[line[:sp]] = v
	}
	return series
}

// sumSeries totals the series of one family whose label set contains every
// given `key="value"` pair.
func sumSeries(series map[string]float64, family string, pairs ...string) float64 {
	var total float64
next:
	for key, v := range series {
		if key != family && !strings.HasPrefix(key, family+"{") {
			continue
		}
		for _, p := range pairs {
			if !strings.Contains(key, p) {
				continue next
			}
		}
		total += v
	}
	return total
}

// TestProcessViewIsSumOfComponents: /metrics is the sum of the components
// that own the instruments, and nothing else. Over a 2-replica in-process
// fleet sharing one artifact registry, every counter family moves by
// exactly the sum of its owners' Stats() fields (the shared registry counted
// once, not per engine); a replica added after the debug endpoint started
// appears in the next scrape with no re-wiring; and removing it leaves every
// process-level counter where it was.
func TestProcessViewIsSumOfComponents(t *testing.T) {
	d, err := serve.NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Earlier tests left their history in the process view; everything
	// below is measured against this baseline.
	base := scrape(t, d)

	model := testModel(t, 60)
	reg := serve.NewRegistry(0)
	if err := reg.Register("m", model); err != nil {
		t.Fatal(err)
	}
	spawn := func() *serve.Engine {
		eng, err := serve.New(serve.Config{Registry: reg, Variant: delphi.ServerGarbler, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	r := NewRouter(Config{SpillFactor: 0.5}) // the second concurrent session spills
	t.Cleanup(func() { r.Close() })
	engines := []*serve.Engine{spawn(), spawn()}
	for _, eng := range engines {
		if _, err := r.AddEngine(eng); err != nil {
			t.Fatal(err)
		}
	}
	ln := r.ServePipe()

	run := func(c *serve.Client, salt int) {
		t.Helper()
		if _, _, err := c.Precompute(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, _, _, err := c.Infer(testInput(model, salt+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := serve.NewPreamble()
	c1 := dialFleet(t, ln, serve.WithModel("m"), serve.WithPreamble(p))
	c2 := dialFleet(t, ln, serve.WithModel("m"))
	run(c1, 1)
	run(c2, 3)
	c1.Close()
	c2.Close()
	c3 := dialFleet(t, ln, serve.WithModel("m"), serve.WithPreamble(p)) // ticket-sticky, resumed
	run(c3, 5)
	c3.Close()

	// check compares each counter family's movement since the baseline with
	// the sum of its owners' Stats() fields.
	check := func(when string) map[string]float64 {
		t.Helper()
		now := scrape(t, d)
		var want serve.Stats // the engines' Stats(), summed
		for _, eng := range engines {
			st := eng.Stats()
			want.TotalInferences += st.TotalInferences
			want.TotalPrecomputes += st.TotalPrecomputes
			want.Tickets.Issued += st.Tickets.Issued
			want.Tickets.Resumed += st.Tickets.Resumed
			want.Tickets.Expired += st.Tickets.Expired
			want.Tickets.Unknown += st.Tickets.Unknown
		}
		rst, fst := reg.Stats(), r.Stats()
		for _, row := range []struct {
			family string
			pairs  []string
			want   uint64
		}{
			{"pi_online_seconds_count", nil, want.TotalInferences},
			{"pi_offline_seconds_count", nil, want.TotalPrecomputes},
			{"pi_offline_he_seconds_count", nil, want.TotalPrecomputes},
			{"pi_tickets_total", []string{`event="issued"`}, want.Tickets.Issued},
			{"pi_tickets_total", []string{`event="resumed"`}, want.Tickets.Resumed},
			{"pi_tickets_total", []string{`event="expired"`}, want.Tickets.Expired},
			{"pi_tickets_total", []string{`event="unknown"`}, want.Tickets.Unknown},
			{"pi_tickets_total", []string{`model="m"`, `event="issued"`}, want.Tickets.Issued},
			{"pi_registry_total", []string{`event="hit"`}, rst.Hits},
			{"pi_registry_total", []string{`event="miss"`}, rst.Misses},
			{"pi_registry_total", []string{`event="eviction"`}, rst.Evictions},
			{"pi_registry_total", []string{`model="m"`}, rst.Hits + rst.Misses},
			{"pi_router_connects_total", nil, fst.Connects},
			{"pi_router_retries_total", nil, fst.Retries},
			{"pi_router_placements_total", []string{`tier="sticky"`}, fst.TicketRoutes},
			{"pi_router_placements_total", []string{`tier="spill"`}, fst.SpillRoutes},
			{"pi_router_placements_total", []string{`tier="no_backend"`}, fst.NoBackend},
		} {
			got := sumSeries(now, row.family, row.pairs...) - sumSeries(base, row.family, row.pairs...)
			if got != float64(row.want) {
				t.Errorf("%s: /metrics %s%v moved by %v, owners' Stats() sum to %d", when, row.family, row.pairs, got, row.want)
			}
		}
		return now
	}
	check("two replicas")
	if st := r.Stats(); st.TicketRoutes != 1 || st.SpillRoutes != 1 || reg.Stats().Misses != 1 {
		t.Fatalf("scenario did not exercise sticky, spill and a shared-registry miss: %+v %+v", st, reg.Stats())
	}

	// A replica added after the endpoint started is in the next scrape.
	// Serve it on a second listener too, so the session is certain to land
	// on it whatever the rendezvous hash prefers.
	added := spawn()
	rep, err := r.AddEngine(added)
	if err != nil {
		t.Fatal(err)
	}
	engines = append(engines, added)
	direct := transport.NewPipeListener()
	defer direct.Close()
	go added.Serve(direct)
	c4 := dialFleet(t, direct, serve.WithModel("m"))
	run(c4, 7)
	c4.Close()
	if added.Stats().TotalInferences != 2 {
		t.Fatal("the added replica served nothing")
	}
	before := check("replica added")

	// Removing it folds its history into the process view: no counter
	// series runs backwards (gauges may), and the family sums still match
	// the owners' — the closed engine's Stats() remain readable.
	if err := r.Remove(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	after := check("replica removed")
	for key, v := range before {
		name, _, _ := strings.Cut(key, "{")
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_bucket") {
			if after[key] < v {
				t.Errorf("removing a replica moved %s from %v to %v", key, v, after[key])
			}
		}
	}
	if sumSeries(after, "pi_fleet_replicas")-sumSeries(base, "pi_fleet_replicas") != 2 {
		t.Errorf("pi_fleet_replicas did not return to 2 after the removal")
	}
}
