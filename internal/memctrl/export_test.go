package memctrl

import "fmt"

// CheckQueues exposes checkQueues to the external tests.
var CheckQueues = (*Controller).checkQueues

// checkQueues returns an error unless the queue-order invariants that
// tryIssue and acceptData rely on hold: the issued data entries are
// exactly dataQ[:dataIssued], the eligible data entries form a prefix of
// dataQ, and pendingCA equals a recount of the CA writes awaiting
// acceptance.
func (mc *Controller) checkQueues() error {
	if mc.dataIssued > len(mc.dataQ) {
		return fmt.Errorf("%d data entries issued, %d queued", mc.dataIssued, len(mc.dataQ))
	}
	eligible := true
	for k, i := range mc.dataQ {
		e := &mc.entries[i]
		if e.issued != (k < mc.dataIssued) {
			return fmt.Errorf("data entry %d of %d: issued=%v, but the issued prefix is %d long",
				k, len(mc.dataQ), e.issued, mc.dataIssued)
		}
		if e.eligible && !eligible {
			return fmt.Errorf("data entry %d of %d is eligible behind an ineligible one", k, len(mc.dataQ))
		}
		eligible = e.eligible
	}
	ca := 0
	for _, r := range mc.pending {
		if r.ca {
			ca++
		}
	}
	if ca != mc.pendingCA {
		return fmt.Errorf("pendingCA = %d, but %d CA writes await acceptance", mc.pendingCA, ca)
	}
	return nil
}
