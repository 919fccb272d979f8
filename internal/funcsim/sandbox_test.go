package funcsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/program"
)

// TestRunCtxStopsInfiniteLoop: a context deadline must stop a tight
// loop mid-run — the wall-clock wall the ingestion sandbox leans on.
func TestRunCtxStopsInfiniteLoop(t *testing.T) {
	p := program.New("t", 8)
	p.Block("spin").Jmp("spin")
	m := MustNew(p)
	m.MaxInstructions = 1 << 40 // only the clock can stop this
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.RunCtx(ctx, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunCtxUncancellableMatchesRun: the polling path a cancellable
// context turns on must not change behavior or results against an
// uncancellable background context.
func TestRunCtxUncancellableMatchesRun(t *testing.T) {
	build := func() *Machine {
		p := program.New("t", 64)
		b := p.Block("main")
		b.Li(1, 0).Li(2, 1000).Li(3, 0)
		lb := p.Block("loop")
		lb.Add(3, 3, 1).Addi(1, 1, 1).Blt(1, 2, "loop")
		p.Block("end").St(3, 0, 16).Halt()
		return MustNew(p)
	}
	m1 := build()
	n1, err1 := m1.RunCtx(context.Background(), nil)
	m2 := build()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n2, err2 := m2.RunCtx(ctx, nil)
	if err1 != nil || err2 != nil || n1 != n2 {
		t.Fatalf("background/cancellable RunCtx diverged: n %d/%d, errs %v/%v", n1, n2, err1, err2)
	}
	if m1.Mem[16] != m2.Mem[16] {
		t.Fatal("background/cancellable RunCtx computed different results")
	}
}

// TestFaultSentinels: out-of-range accesses carry typed causes the
// ingestion taxonomy can branch on.
func TestFaultSentinels(t *testing.T) {
	t.Run("load", func(t *testing.T) {
		p := program.New("t", 8)
		p.Block("m").Ld(1, 0, 100).Halt()
		if _, err := MustNew(p).RunCtx(context.Background(), nil); !errors.Is(err, ErrMemFault) {
			t.Errorf("err = %v, want ErrMemFault", err)
		}
	})
	t.Run("store", func(t *testing.T) {
		p := program.New("t", 8)
		p.Block("m").Li(1, -3).St(1, 1, 0).Halt()
		if _, err := MustNew(p).RunCtx(context.Background(), nil); !errors.Is(err, ErrMemFault) {
			t.Errorf("err = %v, want ErrMemFault", err)
		}
	})
}

// TestNewRejectsMemoryBomb: a program claiming more memory than the
// global ceiling must be rejected before the allocation is attempted.
func TestNewRejectsMemoryBomb(t *testing.T) {
	p := program.New("t", 16)
	p.Block("m").Halt()
	p.MemWords = program.MaxMemWords + 1
	if _, err := New(p); err == nil {
		t.Fatal("memory bomb accepted")
	}
}
