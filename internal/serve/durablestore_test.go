package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"privinf/internal/delphi"
)

// One adversarial battery for the durable store, run against each of its
// three instantiations: whatever holds for one format's files (escaping,
// typed corruption, version skew, crash debris) must hold for all of them,
// because it is one implementation. Store-specific behaviour — the artifact
// disk budget, the ticket load sweep, the payload codecs' semantic checks —
// stays in store_test.go, ticketstore_test.go and preamblestore_test.go.

// storeRow is one instantiation under test: how to open it, a fully
// populated value to store, and its payload decoder.
type storeRow[T any] struct {
	open      func(dir string) (*durableStore[T], error)
	value     func(t *testing.T) T
	unmarshal func([]byte) (T, error)
}

// rewriteFile applies f to a stored file's bytes and writes them back.
func rewriteFile(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o600); err != nil {
		t.Fatal(err)
	}
}

// unwrap adapts a store constructor to the battery: the public stores are
// thin wrappers, and the battery drives the durableStore inside them.
func unwrap[S any, T any](open func(string) (S, error), ds func(S) *durableStore[T]) func(string) (*durableStore[T], error) {
	return func(dir string) (*durableStore[T], error) {
		st, err := open(dir)
		if err != nil {
			return nil, err
		}
		return ds(st), nil
	}
}

// The three rows store the fixed golden values (golden_test.go): small
// enough that cutting a file at every length stays fast.
func artifactRow() storeRow[*delphi.SharedModel] {
	model := goldenNet()
	return storeRow[*delphi.SharedModel]{
		open: unwrap(func(dir string) (*ArtifactStore, error) { return NewArtifactStoreBudget(dir, 0) }, func(st *ArtifactStore) *durableStore[*delphi.SharedModel] { return st.ds }),
		value: func(t *testing.T) *delphi.SharedModel {
			art, err := delphi.NewSharedModel(goldenParams(t), model)
			if err != nil {
				t.Fatal(err)
			}
			return art
		},
		unmarshal: func(p []byte) (*delphi.SharedModel, error) { return delphi.UnmarshalSharedModel(p, model) },
	}
}

func ticketRow() storeRow[ticketRecord] {
	return storeRow[ticketRecord]{
		open:      unwrap(newTicketStore, func(ts *ticketStore) *durableStore[ticketRecord] { return ts.ds }),
		value:     goldenTicket,
		unmarshal: unmarshalTicketRecord,
	}
}

func preambleRow() storeRow[*Preamble] {
	return storeRow[*Preamble]{
		open:      unwrap(NewPreambleStore, func(ps *PreambleStore) *durableStore[*Preamble] { return ps.ds }),
		value:     goldenPreamble,
		unmarshal: UnmarshalPreamble,
	}
}

func TestDurableStoreBattery(t *testing.T) {
	t.Run("artifact", func(t *testing.T) { runStoreBattery(t, artifactRow()) })
	t.Run("ticket", func(t *testing.T) { runStoreBattery(t, ticketRow()) })
	t.Run("preamble", func(t *testing.T) { runStoreBattery(t, preambleRow()) })
}

func runStoreBattery[T any](t *testing.T, row storeRow[T]) {
	v := row.value(t)
	open := func(t *testing.T, dir string) *durableStore[T] {
		t.Helper()
		ds, err := row.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	// saved opens a fresh store holding v under "m".
	saved := func(t *testing.T) *durableStore[T] {
		t.Helper()
		ds := open(t, t.TempDir())
		if err := ds.save("m", v); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	loadErr := func(ds *durableStore[T], name string) error {
		_, err := ds.load(name, row.unmarshal)
		return err
	}
	want, err := open(t, t.TempDir()).marshal(v)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("round trip", func(t *testing.T) {
		ds := saved(t)
		got, err := ds.load("m", row.unmarshal)
		if err != nil {
			t.Fatal(err)
		}
		if enc, err := ds.marshal(got); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("loaded value's canonical encoding diverged from the saved one (err %v)", err)
		}
		info, err := os.Stat(ds.path("m"))
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm()&0o077 != 0 {
			t.Fatalf("published file mode %v is readable beyond its owner", info.Mode().Perm())
		}
		for i := 0; i < 2; i++ { // the second remove finds nothing and must not fail
			if err := ds.remove("m"); err != nil {
				t.Fatal(err)
			}
		}
		if err := loadErr(ds, "m"); !errors.Is(err, ds.errNotFound) {
			t.Fatalf("load after remove = %v, want the not-found sentinel", err)
		}
	})

	t.Run("name escaping", func(t *testing.T) {
		ds := open(t, t.TempDir())
		for _, name := range []string{"models/prod/resnet", "../escape", "a b%c"} {
			if got := ds.path(name); filepath.Dir(got) != ds.dir {
				t.Fatalf("name %q maps outside the store: %s", name, got)
			}
			if err := ds.save(name, v); err != nil {
				t.Fatalf("save %q: %v", name, err)
			}
			if err := loadErr(ds, name); err != nil {
				t.Fatalf("load %q: %v", name, err)
			}
		}
	})

	t.Run("truncation", func(t *testing.T) {
		// The file cut at every length — inside the header or inside the
		// payload — is the corrupt sentinel, never a panic or a half value.
		ds := saved(t)
		info, err := os.Stat(ds.path("m"))
		if err != nil {
			t.Fatal(err)
		}
		for n := info.Size() - 1; n >= 0; n-- {
			if err := os.Truncate(ds.path("m"), n); err != nil {
				t.Fatal(err)
			}
			if err := loadErr(ds, "m"); !errors.Is(err, ds.errCorrupt) {
				t.Fatalf("file cut to %d of %d bytes: load = %v, want the corrupt sentinel", n, info.Size(), err)
			}
		}
		// And the codec itself, without the frame's length check in front.
		for n := range want {
			if _, err := row.unmarshal(want[:n]); err == nil {
				t.Fatalf("codec accepted a payload cut to %d of %d bytes", n, len(want))
			}
		}
	})

	t.Run("bit flips", func(t *testing.T) {
		for which, off := range map[string]int{"magic": 0, "checksum": 17, "payload": storeHeaderBytes + 8} {
			ds := saved(t)
			rewriteFile(t, ds.path("m"), func(b []byte) []byte {
				b[off] ^= 0x40
				return b
			})
			if err := loadErr(ds, "m"); !errors.Is(err, ds.errCorrupt) {
				t.Fatalf("%s flip: load = %v, want the corrupt sentinel", which, err)
			}
		}
	})

	t.Run("version skew", func(t *testing.T) {
		ds := saved(t)
		rewriteFile(t, ds.path("m"), func(b []byte) []byte {
			b[4]++
			return b
		})
		err := loadErr(ds, "m")
		if !errors.Is(err, ds.errVersion) {
			t.Fatalf("load = %v, want the version sentinel", err)
		}
		if errors.Is(err, ds.errCorrupt) || errors.Is(err, ds.errNotFound) {
			t.Fatal("version skew must not match the other sentinels")
		}
	})

	t.Run("empty dir", func(t *testing.T) {
		ds := open(t, filepath.Join(t.TempDir(), "nested", "dir"))
		if err := loadErr(ds, "anything"); !errors.Is(err, ds.errNotFound) {
			t.Fatalf("load from a fresh store = %v, want the not-found sentinel", err)
		}
		if dir, err := os.Stat(ds.dir); err != nil || dir.Mode().Perm()&^ds.dirMode != 0 {
			t.Fatalf("created directory mode %v exceeds the format's %v (err %v)", dir.Mode().Perm(), ds.dirMode, err)
		}
	})

	t.Run("orphaned temps", func(t *testing.T) {
		// Reopening deletes stale atomic-write debris a crashed writer left,
		// but spares fresh temp files (a live writer in another process) and
		// a published file whose name merely looks like debris.
		ds := saved(t)
		if err := ds.save(".weird.tmp-name", v); err != nil {
			t.Fatal(err)
		}
		stale := filepath.Join(ds.dir, ".m.tmp-12345")
		fresh := filepath.Join(ds.dir, ".m.tmp-67890")
		for _, p := range []string{stale, fresh} {
			if err := os.WriteFile(p, []byte("half-written"), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		old := time.Now().Add(-2 * tempMaxAge)
		for _, p := range []string{stale, ds.path(".weird.tmp-name")} {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
		ds = open(t, ds.dir)
		if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("reopen left the orphaned temp file")
		}
		if _, err := os.Stat(fresh); err != nil {
			t.Fatal("reopen deleted a fresh temp file (possibly a live writer's)")
		}
		for _, name := range []string{"m", ".weird.tmp-name"} {
			if err := loadErr(ds, name); err != nil {
				t.Fatalf("published file %q damaged by the sweep: %v", name, err)
			}
		}
		if files, err := ds.list(); err != nil || len(files) != 2 {
			t.Fatalf("list = %d files (err %v), want the 2 published ones", len(files), err)
		}
	})
}

// TestWriteBehind drives the background disk queue on its own: jobs run in
// order outside the owner's lock, outcomes are reported under it, flush is
// a barrier even for jobs enqueued while it waits, and the worker exits
// when the queue drains (a later enqueue starts a new one).
func TestWriteBehind(t *testing.T) {
	var mu sync.Mutex
	w := newWriteBehind(&mu)
	var ran, failed []int
	boom := errors.New("disk full")
	job := func(i int, err error) writeJob {
		return writeJob{
			run: func() error {
				mu.Lock() // deadlocks if the worker ran the job under the lock
				mu.Unlock()
				return err
			},
			done: func(got error) {
				// Runs under mu: appending without locking is the assertion.
				ran = append(ran, i)
				if got != nil {
					failed = append(failed, i)
				}
			},
		}
	}

	w.flush() // nothing queued: returns at once

	const n = 50
	mu.Lock()
	for i := 0; i < n; i++ {
		var err error
		if i%10 == 3 {
			err = boom
		}
		w.enqueue(job(i, err))
	}
	mu.Unlock()
	w.flush()
	mu.Lock()
	if len(ran) != n || len(failed) != n/10 {
		t.Fatalf("after flush: %d jobs reported (%d failed), want %d (%d)", len(ran), len(failed), n, n/10)
	}
	for i, got := range ran {
		if got != i {
			t.Fatalf("job %d reported at position %d: queue order not kept", got, i)
		}
	}
	if w.active || w.pending != 0 || len(w.queue) != 0 {
		t.Fatalf("drained queue still active=%v pending=%d queued=%d", w.active, w.pending, len(w.queue))
	}
	mu.Unlock()

	// Enqueue during flush: a job that queues a successor while flush is
	// already waiting must still be covered by that flush.
	release := make(chan struct{})
	mu.Lock()
	w.enqueue(writeJob{
		run: func() error { <-release; return nil },
		done: func(error) {
			ran = append(ran, n)
			w.enqueue(job(n+1, nil))
		},
	})
	mu.Unlock()
	flushed := make(chan struct{})
	go func() {
		w.flush()
		close(flushed)
	}()
	close(release)
	<-flushed
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != n+2 || ran[n+1] != n+1 {
		t.Fatalf("flush returned before a job enqueued during it finished: %d jobs reported", len(ran))
	}
}
