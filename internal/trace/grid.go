package trace

import "fmt"

// MinutesPerDay is the length of a day in minutes: the longest slot, and
// the most slots a day can hold.
const MinutesPerDay = 24 * 60

// SlotMinutes is the one slot-length rule of every boundary that takes
// a slot length: 0 resolves to hourly slots, and any other length
// outside 1–MinutesPerDay minutes is an error.
func SlotMinutes(m int) (int, error) {
	if m == 0 {
		return 60, nil
	}
	if !validSlot(m) {
		return 0, fmt.Errorf("SlotMinutes %d is outside 1–%d", m, MinutesPerDay)
	}
	return m, nil
}

// validSlot reports whether m is a resolved slot length the rule
// accepts.
func validSlot(m int) bool { return m >= 1 && m <= MinutesPerDay }

// Grid is the slot grid of a generated trace: Days whole days, each laid
// out as SlotsPerDay slots of SlotMinutes minutes. A slot length that
// does not divide the day leaves the day's last minutes without a slot.
// The generators trust a Grid: Days is positive and SlotMinutes is a
// length SlotMinutes returned.
type Grid struct {
	Days        int
	SlotMinutes int
}

// SlotsPerDay returns ⌊MinutesPerDay/SlotMinutes⌋.
func (g Grid) SlotsPerDay() int { return MinutesPerDay / g.SlotMinutes }

// Len returns the number of slots over all days.
func (g Grid) Len() int { return g.Days * g.SlotsPerDay() }

// SlotHours returns the slot length in hours.
func (g Grid) SlotHours() float64 { return float64(g.SlotMinutes) / 60.0 }

// MinuteOfDay returns the minute of the day at which slot i starts; it
// reads only the slot length.
func (g Grid) MinuteOfDay(i int) int { return i % g.SlotsPerDay() * g.SlotMinutes }
