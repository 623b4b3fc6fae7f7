//go:build linux && !ledgerstore_nommap

package ledgerstore

import "syscall"

// releaseMapped drops a mapped, page-aligned range of a segment from the
// process with MADV_DONTNEED. The mapping stays valid: the next touch
// faults the same file bytes back in from the page cache. The call is
// advice, so its error is ignored; a range it could not release stays
// resident until the unmap.
func releaseMapped(b []byte) {
	if len(b) > 0 {
		_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
	}
}
