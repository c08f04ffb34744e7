// Package lru is the one recency list the simulator's LRU policies
// share: the guest page cache above every system under test and the
// SSD-cache baselines below it. The list is intrusive: callers allocate
// and own the nodes, so a cache that recycles its victim node allocates
// nothing once warm.
package lru

// Node is one list element carrying a caller value.
type Node[V any] struct {
	Value      V
	prev, next *Node[V]
}

// Next returns the next less recently used node, or nil at the back.
func (n *Node[V]) Next() *Node[V] { return n.next }

// List is a doubly linked recency list, most recently used at the
// front. The zero value is an empty list.
type List[V any] struct {
	head, tail *Node[V]
}

// Front returns the most recently used node, or nil.
func (l *List[V]) Front() *Node[V] { return l.head }

// Back returns the least recently used node, or nil.
func (l *List[V]) Back() *Node[V] { return l.tail }

// PushFront links n, which must not be on a list, as most recent.
func (l *List[V]) PushFront(n *Node[V]) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// Remove unlinks n from the list.
func (l *List[V]) Remove(n *Node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Touch moves n, which must be on the list, to the front.
func (l *List[V]) Touch(n *Node[V]) {
	if l.head == n {
		return
	}
	l.Remove(n)
	l.PushFront(n)
}
