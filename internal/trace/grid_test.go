package trace

import "testing"

// TestSlotMinutesRule: 0 resolves to hourly slots, every length of 1 to
// 1440 minutes is itself, and anything else is refused.
func TestSlotMinutesRule(t *testing.T) {
	for _, c := range []struct {
		in, want int
		ok       bool
	}{
		{0, 60, true},
		{1, 1, true},
		{7, 7, true},
		{60, 60, true},
		{1440, 1440, true},
		{-1, 0, false},
		{1441, 0, false},
		{100000, 0, false},
	} {
		got, err := SlotMinutes(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("SlotMinutes(%d) = %d, %v; want %d, ok %v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestGridLayout: a day holds ⌊1440/SlotMinutes⌋ slots, whether or not
// the length divides the day, and each slot starts where the last ended.
func TestGridLayout(t *testing.T) {
	for _, c := range []struct {
		g           Grid
		perDay, len int
		hours       float64
	}{
		{Grid{Days: 31, SlotMinutes: 60}, 24, 744, 1},
		{Grid{Days: 2, SlotMinutes: 15}, 96, 192, 0.25},
		{Grid{Days: 1, SlotMinutes: 7}, 205, 205, 7.0 / 60},
		{Grid{Days: 3, SlotMinutes: 1440}, 1, 3, 24},
	} {
		if got := c.g.SlotsPerDay(); got != c.perDay {
			t.Errorf("%+v: SlotsPerDay = %d, want %d", c.g, got, c.perDay)
		}
		if got := c.g.Len(); got != c.len {
			t.Errorf("%+v: Len = %d, want %d", c.g, got, c.len)
		}
		if got := c.g.SlotHours(); got != c.hours {
			t.Errorf("%+v: SlotHours = %v, want %v", c.g, got, c.hours)
		}
		for i := range c.g.Len() {
			want := i % c.perDay * c.g.SlotMinutes
			if got := c.g.MinuteOfDay(i); got != want {
				t.Fatalf("%+v: MinuteOfDay(%d) = %d, want %d", c.g, i, got, want)
			}
		}
	}
}
