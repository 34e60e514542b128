package ctrl

import "flexric/internal/server"

// SouthServer exposes a VirtCtrl's southbound server to tests.
func SouthServer(v *VirtCtrl) *server.Server { return v.srv }
