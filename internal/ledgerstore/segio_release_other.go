//go:build !linux || ledgerstore_nommap

package ledgerstore

// releaseMapped keeps a mapped range resident where the platform offers
// no MADV_DONTNEED through package syscall (or nothing is mapped, under
// ledgerstore_nommap); the pages go with the unmap.
func releaseMapped([]byte) {}
