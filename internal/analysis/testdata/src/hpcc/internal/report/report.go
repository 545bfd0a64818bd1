// Package report is a negative fixture: it is outside the determinism
// check's sim scope, so wall-clock reads are fine here.
package report

import "time"

func Stamp() time.Time { return time.Now() }
