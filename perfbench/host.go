package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostLine describes where the run happened: CPU model, CPU count, Go
// version and the filesystem holding the run's WAL directories.
func hostLine(dir string) string {
	return fmt.Sprintf("  host: cpu %q, nproc %d, %s, WAL filesystem %s",
		cpuModel(), runtime.NumCPU(), runtime.Version(), fsType(dir))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem of dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x794c7630: "overlayfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
