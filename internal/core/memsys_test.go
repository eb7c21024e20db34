package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/vmem"
)

// TestTenantCountBounds: a tenant count a dram.Request cannot name is a
// construction error that says what the limit is (the CLIs and spec
// parser refuse it first, as an error).
func TestTenantCountBounds(t *testing.T) {
	for _, n := range []int{0, 257} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "1..256") {
					t.Errorf("NewTenantMemSystems(n=%d) panicked with %q, want the 1..256 limit named", n, msg)
				}
			}()
			NewTenantMemSystems(MemVectorCache3D, vmem.DefaultTiming(), 4, false, n, nil)
			t.Errorf("NewTenantMemSystems(n=%d) did not panic", n)
		}()
	}
	if got := len(NewTenantMemSystems(MemVectorCache3D, vmem.DefaultTiming(), 4, false, 256, nil)); got != 256 {
		t.Errorf("256 tenants built %d views", got)
	}
}
