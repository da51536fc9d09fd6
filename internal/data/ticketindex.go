package data

import (
	"slices"
	"sort"
)

// TicketIndex is a per-line index over customer-edge ticket arrival days.
// Labelling the training set asks "does line u file a ticket in (t, t+T]?"
// once per (line, week) pair — millions of times — so the linear scans on
// Dataset are indexed once here instead.
type TicketIndex struct {
	days [][]int32 // per line, ascending arrival days of customer-edge tickets
}

// NewTicketIndex builds the index from a dataset.
func NewTicketIndex(d *Dataset) *TicketIndex {
	ix := &TicketIndex{days: make([][]int32, d.NumLines)}
	for _, t := range d.Tickets {
		if t.Category != CatCustomerEdge {
			continue
		}
		ix.days[t.Line] = append(ix.days[t.Line], int32(t.Day))
	}
	for _, s := range ix.days {
		// Dataset tickets are sorted by day already; sort defensively in
		// case the index is built from an unvalidated dataset. Most lines
		// hold no ticket or one, which is sorted as it stands.
		if len(s) > 1 {
			slices.Sort(s)
		}
	}
	return ix
}

// Within reports whether the line files a customer-edge ticket in the window
// (afterDay, afterDay+windowDays].
func (ix *TicketIndex) Within(line LineID, afterDay, windowDays int) bool {
	day, ok := ix.Next(line, afterDay)
	return ok && day <= afterDay+windowDays
}

// Next returns the arrival day of the line's first customer-edge ticket
// strictly after afterDay, and false if there is none.
func (ix *TicketIndex) Next(line LineID, afterDay int) (int, bool) {
	s := ix.days[line]
	i := sort.Search(len(s), func(i int) bool { return int(s[i]) > afterDay })
	if i == len(s) {
		return 0, false
	}
	return int(s[i]), true
}

// Prev returns the arrival day of the line's last customer-edge ticket at or
// before day, and false if there is none. It backs the "ticket" customer
// feature of Table 3 (time from the most recent trouble ticket).
func (ix *TicketIndex) Prev(line LineID, day int) (int, bool) {
	s := ix.days[line]
	i := sort.Search(len(s), func(i int) bool { return int(s[i]) > day })
	if i == 0 {
		return 0, false
	}
	return int(s[i-1]), true
}

// Count returns the number of customer-edge tickets for the line.
func (ix *TicketIndex) Count(line LineID) int { return len(ix.days[line]) }
