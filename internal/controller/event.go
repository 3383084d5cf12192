package controller

import (
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/topo"
)

// EventKind enumerates what can drive the controller.
type EventKind int

const (
	// EventAlarmRaised: the monitor saw a link cross its high threshold.
	EventAlarmRaised EventKind = iota
	// EventAlarmCleared: the link dropped below the low threshold.
	EventAlarmCleared
	// EventDemandChanged: a video session joined (positive DeltaRate) or
	// left (negative DeltaRate) at an ingress.
	EventDemandChanged
	// EventLinkDown: a BFD session declared a link dead, milliseconds
	// after the failure — long before the SNMP poller or the IGP dead
	// interval would notice.
	EventLinkDown
	// EventLinkUp: a BFD session re-established (and cleared flap
	// damping) on a previously failed link.
	EventLinkUp
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventAlarmRaised:
		return "alarm-raised"
	case EventAlarmCleared:
		return "alarm-cleared"
	case EventDemandChanged:
		return "demand-changed"
	case EventLinkDown:
		return "link-down"
	case EventLinkUp:
		return "link-up"
	}
	return "unknown"
}

// Event is the controller's typed input: the monitor, BFD and the video
// servers produce events, Controller.Handle consumes them, so every
// harness drives one engine through one entry point.
type Event struct {
	Kind EventKind
	// Alarm is set for EventAlarmRaised / EventAlarmCleared.
	Alarm monitor.Alarm
	// Prefix / Ingress / DeltaRate describe an EventDemandChanged:
	// DeltaRate bit/s joined (positive) or left (negative) the demand
	// aggregate for Prefix at Ingress.
	Prefix    string
	Ingress   topo.NodeID
	DeltaRate float64
	// Link is set for EventLinkDown / EventLinkUp: the failed (or
	// recovered) link, in the controller topology's ID space.
	Link topo.Link
}

// AlarmEvent wraps a monitor alarm into the matching event.
func AlarmEvent(a monitor.Alarm) Event {
	kind := EventAlarmCleared
	if a.Raised {
		kind = EventAlarmRaised
	}
	return Event{Kind: kind, Alarm: a}
}

// DemandEvent builds a demand-change event; rate is positive for a join,
// negative for a leave.
func DemandEvent(prefix string, ingress topo.NodeID, rate float64) Event {
	return Event{Kind: EventDemandChanged, Prefix: prefix, Ingress: ingress, DeltaRate: rate}
}

// LinkDownEvent wraps a liveness-detected link failure.
func LinkDownEvent(l topo.Link) Event { return Event{Kind: EventLinkDown, Link: l} }

// LinkUpEvent wraps a liveness-detected link recovery.
func LinkUpEvent(l topo.Link) Event { return Event{Kind: EventLinkUp, Link: l} }
