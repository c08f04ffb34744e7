package lru

import (
	"reflect"
	"testing"
)

func order(l *List[int]) []int {
	var got []int
	for n := l.Front(); n != nil; n = n.Next() {
		got = append(got, n.Value)
	}
	return got
}

// TestListOrder: PushFront, Touch and Remove keep the list in recency
// order, front to back, with Back the least recent node.
func TestListOrder(t *testing.T) {
	var l List[int]
	if l.Front() != nil || l.Back() != nil {
		t.Fatal("zero list is not empty")
	}
	nodes := make([]*Node[int], 4)
	for i := range nodes {
		nodes[i] = &Node[int]{Value: i}
		l.PushFront(nodes[i])
	}
	if got, want := order(&l), []int{3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after pushes %v, want %v", got, want)
	}
	l.Touch(nodes[0])
	l.Touch(nodes[0]) // already at the front
	l.Touch(nodes[2])
	if got, want := order(&l), []int{2, 0, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after touches %v, want %v", got, want)
	}
	l.Remove(l.Back())
	l.Remove(nodes[2])
	if got, want := order(&l), []int{0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after removes %v, want %v", got, want)
	}
	if l.Back() != nodes[3] || nodes[2].Next() != nil {
		t.Fatal("back or removed node links wrong")
	}
	l.Remove(nodes[0])
	l.Remove(nodes[3])
	if l.Front() != nil || l.Back() != nil {
		t.Fatal("emptied list is not empty")
	}
	// A removed node can be pushed again.
	l.PushFront(nodes[1])
	if got, want := order(&l), []int{1}; !reflect.DeepEqual(got, want) || l.Back() != nodes[1] {
		t.Fatalf("after re-push %v, want %v", got, want)
	}
}
