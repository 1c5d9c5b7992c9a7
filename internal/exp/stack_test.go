package exp

import (
	"testing"

	"hurricane/internal/trace/placement"
)

// TestStackRowOwners pins which row of the autonomics constants table each
// owning experiment builds its stacks from (the rows' values are pinned by
// placement's TestStackRows).
func TestStackRowOwners(t *testing.T) {
	if autonomicStackRow != placement.RowServer {
		t.Errorf("AutonomicSweep builds its stacks from %s, want server", autonomicStackRow)
	}
	all := placement.Policies{Tune: true, Migrate: true, Replicate: true}
	if comb := autonomicRows[len(autonomicRows)-1]; comb.name != "combined" || comb.pol != all {
		t.Errorf("AutonomicSweep's last row is %+v, want the combined plane", comb)
	}
	if placementOnlineRow != placement.RowFault {
		t.Errorf("PlacementOnline builds its stacks from %s, want fault", placementOnlineRow)
	}
}
