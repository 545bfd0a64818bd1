// Package sim is a fixture stand-in for hpcc/internal/sim: the
// eventkey analyzer matches methods named At/After on *Engine in a
// package named "sim", which this fake replicates.
package sim

type Time int64

type EventKey uint64

type Engine struct{ now Time }

func (e *Engine) Now() Time { return e.now }

func (e *Engine) At(t Time, fn func()) {}

func (e *Engine) After(d Time, fn func()) {}

func (e *Engine) AtKey(t Time, key EventKey, fn func()) {}

func (e *Engine) AfterKey(d Time, key EventKey, fn func()) {}

type Sink interface{ Arrive(arg any) }

func (e *Engine) Deliver(t Time, key EventKey, sink Sink, arg any) {}

// Defer schedules unkeyed through Engine.After: package sim is outside
// the delivery scope, so nothing is flagged here, but the facts pass
// records the SchedulesUnkeyed summary and delivery-scope callers are
// flagged at their call site with the chain.
func Defer(e *Engine, d Time, fn func()) { e.After(d, fn) }
