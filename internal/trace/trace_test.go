package trace

import "testing"

func TestTeeFansOutInOrder(t *testing.T) {
	var order []string
	a := ConsumerFunc(func(d *DynInst) { order = append(order, "a") })
	b := ConsumerFunc(func(d *DynInst) { order = append(order, "b") })
	tee := Tee{a, b}
	tee.Consume(&DynInst{})
	tee.Consume(&DynInst{})
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
