package artifact_test

import (
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// typedOp is one of the store's six typed operations. run performs it
// and reports whether what it returned (beyond the error) is all zero
// values; key is the content key the operation reads or writes.
type typedOp struct {
	name string
	op   artifact.Op
	key  string
	run  func(s *artifact.Store) (zero bool, err error)
}

// typedOps lists the six typed operations on sha's workload and on one
// memory and one branch plane of it, saves first, so that on one store
// every load finds what the saves before it wrote.
func typedOps(t *testing.T) []typedOp {
	t.Helper()
	pw := profiledSha(t)
	id := artifact.WorkloadID{Name: "sha"}
	wkey := artifact.KeyOf(id.Identity())
	hier := uarch.Default().Hier
	bb := trace.NewBytePlaneBuilder()
	pb := trace.NewBitPlaneBuilder()
	for i := 0; i < trace.ChunkLen+17; i++ {
		bb.Append(uint8(i % 7))
		pb.Append(i%5 == 0)
	}
	st := cache.Stats{IL1Accesses: 123, DL1Misses: 45, Writebacks: 6}

	// Plane keys are the ones the store lists for the planes it holds.
	probe := openStore(t)
	if err := probe.SaveMemPlane(wkey, hier, bb.Plane(), st); err != nil {
		t.Fatal(err)
	}
	if err := probe.SaveBranchPlane(wkey, "gshare", pb.Plane()); err != nil {
		t.Fatal(err)
	}
	infos, err := probe.List()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{artifact.KindWorkload.String(): wkey}
	for _, in := range infos {
		keys[in.Kind] = in.Key
	}
	if len(keys) != 3 {
		t.Fatalf("probe store lists %v, want one mem plane and one branch plane", infos)
	}

	return []typedOp{
		{"SaveWorkload", artifact.OpSave, wkey, func(s *artifact.Store) (bool, error) {
			key, err := s.SaveWorkload(id, pw.Trace, pw.Prof)
			return key == "", err
		}},
		{"SaveMemPlane", artifact.OpSave, keys[artifact.KindMemPlane.String()], func(s *artifact.Store) (bool, error) {
			return true, s.SaveMemPlane(wkey, hier, bb.Plane(), st)
		}},
		{"SaveBranchPlane", artifact.OpSave, keys[artifact.KindBranchPlane.String()], func(s *artifact.Store) (bool, error) {
			return true, s.SaveBranchPlane(wkey, "gshare", pb.Plane())
		}},
		{"LoadWorkload", artifact.OpLoad, wkey, func(s *artifact.Store) (bool, error) {
			tr, prof, err := s.LoadWorkload(id)
			return tr == nil && prof == nil, err
		}},
		{"LoadMemPlane", artifact.OpLoad, keys[artifact.KindMemPlane.String()], func(s *artifact.Store) (bool, error) {
			plane, got, err := s.LoadMemPlane(wkey, hier)
			return plane == nil && got == (cache.Stats{}), err
		}},
		{"LoadBranchPlane", artifact.OpLoad, keys[artifact.KindBranchPlane.String()], func(s *artifact.Store) (bool, error) {
			plane, err := s.LoadBranchPlane(wkey, "gshare")
			return plane == nil, err
		}},
	}
}

// layerCall is one layer's view of one operation.
type layerCall struct {
	layer string
	op    artifact.Op
	key   string
}

// recorder returns a layer that logs each call into log, then runs the
// operation.
func recorder(name string, log *[]layerCall) artifact.Layer {
	return func(op artifact.Op, key string, do func() error) error {
		*log = append(*log, layerCall{name, op, key})
		return do()
	}
}

// TestStoreLayers pins the layer contract of the six typed operations:
// every layer runs once per operation with its kind and content key,
// the first layer given is innermost, a layer that declines to run the
// operation decides its outcome, and stores without layers behave as
// the bare store.
func TestStoreLayers(t *testing.T) {
	ops := typedOps(t)

	t.Run("each-op-once", func(t *testing.T) {
		s := openStore(t)
		var log []layerCall
		s.Use(recorder("a", &log), recorder("b", &log))
		for _, o := range ops {
			log = log[:0]
			if zero, err := o.run(s); err != nil || (o.op == artifact.OpLoad && zero) {
				t.Fatalf("%s through recording layers: zero=%v err=%v", o.name, zero, err)
			}
			want := []layerCall{{"b", o.op, o.key}, {"a", o.op, o.key}}
			if !slices.Equal(log, want) {
				t.Fatalf("%s: layer calls %+v, want %+v", o.name, log, want)
			}
			if _, err := os.Stat(storedPath(s, o.key)); err != nil {
				t.Fatalf("%s: no file under the layers' key: %v", o.name, err)
			}
		}
	})

	t.Run("later-outside", func(t *testing.T) {
		s := openStore(t)
		var order []string
		wrap := func(name string) artifact.Layer {
			return func(_ artifact.Op, _ string, do func() error) error {
				order = append(order, name+"<")
				err := do()
				order = append(order, name+">")
				return err
			}
		}
		s.Use(wrap("a"), wrap("b"))
		if _, err := ops[0].run(s); err != nil {
			t.Fatal(err)
		}
		if want := []string{"b<", "a<", "a>", "b>"}; !slices.Equal(order, want) {
			t.Fatalf("Use(a, b) ran %v, want %v", order, want)
		}
	})

	t.Run("declined", func(t *testing.T) {
		refused := errors.New("refused by layer")
		decline := func(artifact.Op, string, func() error) error { return refused }

		// Loads: the files exist, but the layer never lets the store
		// read them.
		filled := openStore(t)
		for _, o := range ops[:3] {
			if _, err := o.run(filled); err != nil {
				t.Fatal(err)
			}
		}
		guarded, err := artifact.Open(filled.Dir())
		if err != nil {
			t.Fatal(err)
		}
		guarded.Use(decline)
		for _, o := range ops[3:] {
			if zero, err := o.run(guarded); !errors.Is(err, refused) || !zero {
				t.Fatalf("declined %s: zero=%v err=%v, want zero values and the layer's error", o.name, zero, err)
			}
		}

		// Saves: nothing reaches the disk.
		empty := openStore(t)
		empty.Use(decline)
		for _, o := range ops[:3] {
			if zero, err := o.run(empty); !errors.Is(err, refused) || !zero {
				t.Fatalf("declined %s: zero=%v err=%v, want the layer's error", o.name, zero, err)
			}
		}
		if entries, err := os.ReadDir(empty.Dir()); err != nil || len(entries) != 0 {
			t.Fatalf("declined saves wrote %v (err %v)", entries, err)
		}
	})

	t.Run("nil-store", func(t *testing.T) {
		var s *artifact.Store
		for _, o := range ops {
			zero, err := o.run(s)
			if !zero {
				t.Fatalf("nil store %s returned non-zero values", o.name)
			}
			if o.op == artifact.OpLoad && !errors.Is(err, artifact.ErrNotFound) {
				t.Fatalf("nil store %s: err = %v, want ErrNotFound", o.name, err)
			}
			if o.op == artifact.OpSave && err != nil {
				t.Fatalf("nil store %s: err = %v, want a no-op", o.name, err)
			}
		}
	})

	t.Run("no-layers", func(t *testing.T) {
		bare, layered := openStore(t), openStore(t)
		var log []layerCall
		layered.Use(recorder("a", &log))
		for _, s := range []*artifact.Store{bare, layered} {
			for _, o := range ops {
				if zero, err := o.run(s); err != nil || (o.op == artifact.OpLoad && zero) {
					t.Fatalf("%s: zero=%v err=%v", o.name, zero, err)
				}
			}
		}
		// Layers change nothing about what the store writes.
		for _, o := range ops[:3] {
			a, err := bare.ReadRaw(o.key)
			if err != nil {
				t.Fatal(err)
			}
			b, err := layered.ReadRaw(o.key)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("%s: layered store wrote different bytes", o.name)
			}
		}
	})
}
