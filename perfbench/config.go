package main

import (
	"fmt"
	"runtime"
	"syscall"

	"rulematch/internal/cliflags"
	"rulematch/internal/core"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// The durability defaults of cmd/emserve's -fsync and -compact flags.
// TestProductionConfig fails if emserve's defaults drift from these.
const (
	emserveFsync   = "always"
	emserveCompact = wal.DefaultCompactBytes
)

// productionConfig is the engine configuration emserve serves with
// when no engine flag is given.
func productionConfig() core.Config { return cliflags.NewEngine().Config() }

// durability is emserve's durability configuration for datadir dir.
func durability(dir string) (server.Durability, error) {
	policy, err := wal.ParseSyncPolicy(emserveFsync)
	if err != nil {
		return server.Durability{}, err
	}
	return server.Durability{Dir: dir, Policy: policy, CompactAt: emserveCompact}, nil
}

// fsName names the filesystem holding path from its statfs magic.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("magic 0x%X", st.Type)
}

// configHeader is the output line that pins what a run measured: the
// resolved engine config, the flush policy, GOMAXPROCS and the
// datadir's filesystem.
func configHeader(workload, datadir string) string {
	d, err := durability(datadir)
	policy := "invalid: " + fmt.Sprint(err)
	if err == nil {
		policy = d.Policy.String()
	}
	return fmt.Sprintf("# workload=%s core.Config=%+v fsync=%s compactAt=%d GOMAXPROCS=%d datadirFS=%s",
		workload, productionConfig(), policy, emserveCompact, runtime.GOMAXPROCS(0), fsName(datadir))
}
