package sizing

import (
	"repro/internal/netlist"
	"repro/internal/sta"
)

// SetStepCheck installs f as ContinuousTILOS's per-bump observer until
// the returned func is called.
func SetStepCheck(f func(n *netlist.Netlist, r *sta.Result)) (restore func()) {
	stepCheck = f
	return func() { stepCheck = nil }
}
