package main

import (
	"bytes"
	"strconv"

	"bips/internal/graph"
	"bips/internal/sim"
	"bips/internal/wire"
)

// pushed is the part of a MsgEvent the benchmark uses. The subscription
// id is the benchmark's own: a class letter and an index ("r12", "d3").
type pushed struct {
	class byte
	idx   int
	kind  string
	room  graph.NodeID
	at    sim.Tick
}

var eventKinds = []string{wire.EventEnter, wire.EventLeave, wire.EventZoneEnter, wire.EventZoneExit,
	wire.EventOccupancyRise, wire.EventOccupancyFall}

// decodeEvent reads an event body. The server writes events in one
// canonical layout (wire.Event.AppendTo); the scan reads that layout
// without reflection, so one receive goroutine keeps up with tens of
// thousands of events a second. Anything else goes through
// encoding/json.
func decodeEvent(body []byte) (pushed, bool) {
	if p, ok := scanEvent(body); ok {
		return p, true
	}
	var ev wire.Event
	if err := wire.UnmarshalBody(wire.Envelope{Type: wire.MsgEvent, Body: body}, &ev); err != nil || len(ev.Sub) < 2 {
		return pushed{}, false
	}
	idx, err := strconv.Atoi(ev.Sub[1:])
	if err != nil {
		return pushed{}, false
	}
	return pushed{class: ev.Sub[0], idx: idx, kind: ev.Kind, room: ev.Room, at: ev.At}, true
}

func scanEvent(b []byte) (p pushed, ok bool) {
	if bytes.IndexByte(b, '\\') >= 0 {
		return p, false
	}
	sub, ok := stringField(b, `{"sub":"`)
	if !ok || len(sub) < 2 {
		return p, false
	}
	p.class = sub[0]
	idx, ok := intAt(sub[1:])
	if !ok {
		return p, false
	}
	p.idx = int(idx)
	kind, ok := stringField(b, `,"kind":"`)
	if !ok {
		return p, false
	}
	for _, k := range eventKinds {
		if string(kind) == k {
			p.kind = k
		}
	}
	room, ok := intField(b, `,"room":`)
	if !ok || p.kind == "" {
		return p, false
	}
	at, ok := intField(b, `,"at":`)
	if !ok {
		return p, false
	}
	p.room, p.at = graph.NodeID(room), sim.Tick(at)
	return p, true
}

func stringField(b []byte, key string) ([]byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, false
	}
	rest := b[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

func intField(b []byte, key string) (int64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := b[i+len(key):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	return intAt(rest[:j])
}

func intAt(b []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	return v, err == nil
}
