// Reconnect: the session preamble subsystem live — the three
// connect-latency tiers of a repeat client.
//
// The paper's end-to-end characterization shows setup, not online
// inference, dominating per-session cost; in this repo a cold connect
// spends its time on HE keygen and 128 public-key base OTs on P-256. The
// preamble subsystem collapses both for repeat clients:
//
//	cold     first ever connect: full wire handshake, HE keygen, kappa
//	         base OTs. The engine issues an OT resumption ticket on the
//	         way out.
//	resumed  ticket + cached seeds + held HE keys: both sides expand
//	         fresh OT extension streams locally and the client reuses its
//	         cached key pair, sending only its public key — no base OTs,
//	         no keygen — and connect cost drops to about one round trip.
//	durable  both processes restart: the engine reloads its tickets from
//	         TicketDir, the client reloads its preamble from a
//	         PreambleStore, and the very first connect of the new
//	         processes still takes the resumed fast path.
//
// Every session derives its plans and circuits from the welcome's model
// metadata; the circuits come from a process-wide table, so a reconnect
// builds none.
//
// The example times all three tiers, proves the resumed and post-restart
// sessions' inferences are bit-identical to the cold session's, and prints
// the engine's ticket-cache counters.
//
//	go run ./examples/reconnect
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"privinf"
)

func main() {
	cnn, err := privinf.NewDemoCNN(21)
	if err != nil {
		log.Fatal(err)
	}
	// Durable state for the restart leg: the engine persists its tickets
	// under dir/tickets, the client its preamble under dir/preambles.
	dir, err := os.MkdirTemp("", "reconnect")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	engCfg := privinf.LocalEngineConfig{
		Models:    map[string]*privinf.Model{"cnn": cnn},
		Variant:   privinf.ClientGarbler,
		TicketDir: filepath.Join(dir, "tickets"),
	}
	eng, err := privinf.NewLocalEngine(engCfg)
	if err != nil {
		log.Fatal(err)
	}

	x := make([]uint64, cnn.InputLen())
	for i := range x {
		x[i] = uint64((i*7 + 3) % 16)
	}

	p := privinf.NewPreamble()
	connect := func(tier string, p *privinf.Preamble) (*privinf.Session, time.Duration) {
		start := time.Now()
		sess, err := eng.Connect("cnn", privinf.WithPreamble(p))
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		fmt.Printf("%-9s connect %8.1f ms  (resumed %v, preamble %d B)\n",
			tier, d.Seconds()*1000, sess.Resumed(), p.SizeBytes())
		return sess, d
	}

	// Tier 1: cold. First connect of this client, full handshake.
	cold, coldTime := connect("cold:", p)
	coldRes, err := cold.Infer(x)
	if err != nil || !coldRes.Verified {
		log.Fatalf("cold inference failed: %v", err)
	}
	cold.Close()

	// Tier 2: resumed. The cold session's full handshake issued a ticket;
	// this connect skips the base OTs entirely. (The client sends the last
	// base-OT flight, so its connect returns while the engine is still
	// deriving the ticket's seeds; the cold inference above waited for them,
	// and a reconnect that beats them waits inside the engine.)
	resumed, resumedTime := connect("resumed:", p)
	resumedRes, err := resumed.Infer(x)
	if err != nil || !resumedRes.Verified {
		log.Fatalf("resumed inference failed: %v", err)
	}
	if !resumed.Resumed() {
		log.Fatal("second connect should have resumed")
	}
	resumed.Close()

	if !reflect.DeepEqual(coldRes.Output, resumedRes.Output) {
		log.Fatal("resumed session's output diverged from the cold session's")
	}

	// Tier 3: durable. Persist the client's preamble, then "crash" both
	// parties: close the engine (its live tickets have been written
	// through to TicketDir) and throw away the in-memory preamble. A new
	// engine over the same ticket directory and a preamble reloaded from
	// disk resume as if neither process had restarted.
	pstore, err := privinf.NewPreambleStore(filepath.Join(dir, "preambles"))
	if err != nil {
		log.Fatal(err)
	}
	if err := pstore.Save("demo-client", p); err != nil {
		log.Fatal(err)
	}
	eng.Close()
	eng, err = privinf.NewLocalEngine(engCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	p2, err := pstore.Load("demo-client")
	if err != nil {
		log.Fatal(err)
	}
	durable, durableTime := connect("durable:", p2)
	if !durable.Resumed() {
		log.Fatal("post-restart connect should have resumed from persisted state")
	}
	durableRes, err := durable.Infer(x)
	if err != nil || !durableRes.Verified {
		log.Fatalf("post-restart inference failed: %v", err)
	}
	durable.Close()
	if !reflect.DeepEqual(coldRes.Output, durableRes.Output) {
		log.Fatal("post-restart session's output diverged from the cold session's")
	}

	fmt.Printf("\nresumed and post-restart outputs bit-identical to cold output (predicted class %d), verified against plaintext\n",
		resumedRes.Predicted)
	fmt.Printf("speedup: resumed connect %.0fx faster than cold; post-restart resumed connect %.0fx faster than cold\n",
		float64(coldTime)/float64(resumedTime), float64(coldTime)/float64(durableTime))

	st := eng.Stats()
	fmt.Printf("ticket cache (restarted engine): %d resident (%d B), loaded %d, resumed %d, load errors %d\n",
		st.Tickets.Tickets, st.Tickets.Bytes, st.Tickets.Loaded, st.Tickets.Resumed, st.Tickets.LoadErrors)
}
