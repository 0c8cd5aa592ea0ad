package obs

import (
	"runtime"
	"runtime/debug"
)

// RegisterBuildInfo exports a constant rptcn_build_info gauge (value 1)
// whose labels identify the running binary: module version, VCS
// revision, dirty flag, and Go toolchain version, read from
// runtime/debug.ReadBuildInfo. Fields the build did not stamp come out
// as "unknown", so the label set is stable across build modes (module
// builds, `go test`, stripped binaries). Repeated calls for the same
// registry are no-ops.
func RegisterBuildInfo(r *Registry) {
	r.buildInfoOnce.Do(func() {
		version, revision, modified := "unknown", "unknown", "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
				version = bi.Main.Version
			}
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					if s.Value != "" {
						revision = s.Value
					}
				case "vcs.modified":
					modified = s.Value
				}
			}
		}
		r.Gauge("rptcn_build_info",
			"Build identity of the running binary; constant 1.",
			L("version", version),
			L("revision", revision),
			L("modified", modified),
			L("go_version", runtime.Version()),
		).Set(1)
	})
}
