//go:build !unix || aix || solaris

package store

import "os"

// lockLog is a no-op where flock is unavailable: one writer per store is
// then the caller's duty.
func lockLog(*os.File, string) error { return nil }
