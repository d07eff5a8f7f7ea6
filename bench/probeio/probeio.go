// Package probeio is the file format between gapbench and gapprobe: the
// requests and tier state gapbench hands to the in-process layer probes,
// and the timings and spans they hand back.
package probeio

import "encoding/json"

// The tier states a probe pool can start from.
const (
	// TierWarm holds every result of Input.Warm in the RAM cache.
	TierWarm = "warm"
	// TierRestart recovers Input.Dir's store and journal under an
	// 8-entry cache, as gapd -cache 8 does after a restart.
	TierRestart = "restart"
	// TierDurable is an empty store and journal.
	TierDurable = "durable"
)

// Input is what gapprobe replays.
type Input struct {
	Tier    string `json:"tier"`
	Dir     string `json:"dir"`     // the traced set-up's directory: store/ and journal/
	Scratch string `json:"scratch"` // where probes may create stores
	// EpochNS is when the traced window opened, in Unix nanoseconds; span
	// times count from it.
	EpochNS int64 `json:"epoch_ns"`
	// Replays are the traced window's first requests; the index is the
	// schedule index.
	Replays []Request `json:"replays"`
	// Warm are the results TierWarm holds.
	Warm []json.RawMessage `json:"warm,omitempty"`
	// Puts are verified results by content address, for the store put
	// probe (TierDurable).
	Puts map[string]json.RawMessage `json:"puts,omitempty"`
}

// Request is one POST of the window.
type Request struct {
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"` // the canonical spec
	Hash string          `json:"hash"` // its content address
}

// Output is gapprobe's answer: per-layer values by metric name, and one
// span per probe call.
type Output struct {
	Values map[string]float64 `json:"values"`
	Spans  []Span             `json:"spans"`
}

// Span is one timed interval: a client request in the traced window, or
// one in-process probe call replaying that request.
type Span struct {
	ID     int    `json:"id"` // schedule index; -1 for probes of no single request
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the traced window opened
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Owner  string `json:"owner,omitempty"` // cluster3-mixed: local or peer
}
