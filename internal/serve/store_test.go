package serve

import (
	"errors"
	"os"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
)

func testCNN(t *testing.T, seed int64) *nn.Lowered {
	t.Helper()
	model, err := nn.DemoCNN(field.New(field.P20), seed)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestArtifactStoreLoadBindsModel: Load attaches the artifact to the model
// it is handed, and a valid file loaded against a mismatched model
// (different architecture ⇒ different metadata) fails as corrupt-class, not
// as a panic or a silently wrong artifact. A nil artifact is refused.
func TestArtifactStoreLoadBindsModel(t *testing.T) {
	st, err := NewArtifactStoreBudget(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t, 115)
	art, err := delphi.NewSharedModel(mustParams(t, model), model)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("m", art); err != nil {
		t.Fatal(err)
	}
	if !st.Has("m") || st.Has("absent") {
		t.Fatal("Has disagrees with what was saved")
	}
	got, err := st.Load("m", model)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model() != model || got.SizeBytes() != art.SizeBytes() {
		t.Fatal("loaded artifact not attached to the supplied model, or resized")
	}
	if _, err := st.Load("m", testCNN(t, 115)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("Load with mismatched model = %v, want ErrArtifactCorrupt", err)
	}
	if err := st.Save("nil", nil); err == nil {
		t.Fatal("nil artifact saved")
	}
}

// TestArtifactStoreSweepBudget: Sweep deletes least-recently-modified
// artifact files until the directory fits the budget, never the newest.
func TestArtifactStoreSweepBudget(t *testing.T) {
	dir := t.TempDir()
	st, err := NewArtifactStoreBudget(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t, 118)
	art, err := delphi.NewSharedModel(mustParams(t, model), model)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for i, name := range []string{"old", "mid", "new"} {
		if err := st.Save(name, art); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(st.Path(name))
		if err != nil {
			t.Fatal(err)
		}
		size = info.Size()
		// Separate mtimes deterministically (filesystem timestamps can tie).
		mt := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(st.Path(name), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	removed, err := st.Sweep(size + size/2) // room for one file only
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("sweep removed %d files, want 2", removed)
	}
	if st.Has("old") || st.Has("mid") {
		t.Fatal("sweep kept an older file over a newer one")
	}
	if !st.Has("new") {
		t.Fatal("sweep deleted the newest file")
	}

	// Even an impossible budget never deletes the last (newest) file.
	if _, err := st.Sweep(1); err != nil {
		t.Fatal(err)
	}
	if !st.Has("new") {
		t.Fatal("sweep deleted the most recent artifact under an impossible budget")
	}
}

// TestArtifactStoreDiskBudgetOnSave: a store opened with a disk budget
// sweeps automatically after every Save.
func TestArtifactStoreDiskBudgetOnSave(t *testing.T) {
	dir := t.TempDir()
	model := testModel(t, 119)
	art, err := delphi.NewSharedModel(mustParams(t, model), model)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewArtifactStoreBudget(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Save("probe", art); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(probe.Path("probe"))
	if err != nil {
		t.Fatal(err)
	}
	fileSize := info.Size()

	st, err := NewArtifactStoreBudget(dir, fileSize+fileSize/2)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		if err := st.Save(name, art); err != nil {
			t.Fatal(err)
		}
		// Backdate each publication so the next Save's sweep sees a strict
		// LRU order even on coarse filesystem clocks.
		mt := time.Now().Add(time.Duration(i-3) * time.Minute)
		if err := os.Chtimes(st.Path(name), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if st.Has("a") || st.Has("b") {
		t.Fatal("disk budget not enforced on Save")
	}
	if !st.Has("c") {
		t.Fatal("the just-saved artifact must survive its own sweep")
	}
}
