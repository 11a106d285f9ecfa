package netsim

import (
	"os"
	"testing"
)

// TestMain runs the package's tests on classic links when NETSIM_FUSED=0,
// so the suite (golden figures included) proves both transmit paths.
func TestMain(m *testing.M) {
	if os.Getenv("NETSIM_FUSED") == "0" {
		SetFusedLinks(false)
	}
	os.Exit(m.Run())
}
