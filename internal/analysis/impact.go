package analysis

import (
	"fmt"
	"io"

	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// AttackImpact quantifies §7.4's discussion: for each high-profile event,
// how much the metric it targeted moved in the window around its disclosure
// versus the year after. "Sometimes spectacular, sometimes quite slow."
type AttackImpact struct {
	Event  timeline.Event
	Metric string
	// Before is the metric in the month preceding the event.
	Before float64
	// After6 and After12 are the metric 6 and 12 months after.
	After6, After12 float64
}

// Delta12 returns the 12-month change (negative = decline).
func (a AttackImpact) Delta12() float64 { return a.After12 - a.Before }

// impactMetrics pairs each event with the series the paper reads it
// against, expressed in the same query grammar as the figure catalog. The
// forward-secrecy metric reads the frame's build-time KexForwardSecret
// column instead of re-classifying key exchanges per call.
var impactMetrics = []struct {
	event  string
	metric string
	expr   *Expr
}{
	{timeline.EventRC4, "RC4 negotiated %", q("pct(class:rc4 / established)")},
	{timeline.EventRC4NoMore, "RC4 advertised %", q("pct(adv-rc4 / total)")},
	{timeline.EventSnowden, "forward-secret negotiated %", q("pct(kex-forward-secret / established)")},
	{timeline.EventLucky13, "CBC negotiated %", q("pct(class:cbc / established)")},
	{timeline.EventPOODLE, "SSL3 negotiated %", q("pct(version:ssl3 / established)")},
	{timeline.EventSweet32, "3DES advertised %", q("pct(adv-3des / total)")},
	{timeline.EventFREAK, "export advertised %", q("pct(adv-export / total)")},
	{timeline.EventHeartbleed, "heartbeat offered %", q("pct(offers-heartbeat / total)")},
}

// AttackImpacts evaluates every event/metric pair available in the
// aggregate's window.
func AttackImpacts(agg *notary.Aggregate) []AttackImpact {
	return AttackImpactsFrame(NewFrame(agg))
}

// AttackImpactsFrame evaluates the event/metric pairs against a frame.
func AttackImpactsFrame(f *Frame) []AttackImpact {
	var out []AttackImpact
	for _, im := range impactMetrics {
		date, ok := timeline.EventDate(im.event)
		if !ok {
			continue
		}
		m0 := timeline.MonthOf(date)
		before, okB := f.Row(m0.AddMonths(-1))
		after6, ok6 := f.Row(m0.AddMonths(6))
		after12, ok12 := f.Row(m0.AddMonths(12))
		if !okB || !ok6 || !ok12 {
			continue
		}
		ev := timeline.Event{Name: im.event, Date: date}
		for _, e := range timeline.Events() {
			if e.Name == im.event {
				ev = e
			}
		}
		imp := AttackImpact{Event: ev, Metric: im.metric}
		// The compiled plan streams single rows, so reading the three
		// sample months never materializes the full series.
		p := f.planFor(im.expr)
		imp.Before = p.seriesAt(before)
		imp.After6 = p.seriesAt(after6)
		imp.After12 = p.seriesAt(after12)
		out = append(out, imp)
	}
	return out
}

// RenderImpacts writes the §7.4 table.
func RenderImpacts(w io.Writer, impacts []AttackImpact) error {
	if _, err := fmt.Fprintf(w, "%-14s %-12s %-28s %8s %8s %8s %8s\n",
		"event", "date", "metric", "before", "+6mo", "+12mo", "Δ12"); err != nil {
		return err
	}
	for _, im := range impacts {
		if _, err := fmt.Fprintf(w, "%-14s %-12s %-28s %7.1f%% %7.1f%% %7.1f%% %+7.1f\n",
			im.Event.Name, im.Event.Date, im.Metric,
			im.Before, im.After6, im.After12, im.Delta12()); err != nil {
			return err
		}
	}
	return nil
}
