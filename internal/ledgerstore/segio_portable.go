//go:build (!linux && !darwin) || ledgerstore_nommap

package ledgerstore

// mapSegment on platforms without the mmap reader (or with the
// ledgerstore_nommap build tag): always defer to the ReadFile fallback
// in openSegment.
func mapSegment(path string) ([]byte, func() error, error) {
	return nil, nil, errMmapUnavailable
}
