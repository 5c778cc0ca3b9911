//go:build unix && !aix && !solaris

package store

import (
	"fmt"
	"os"
	"syscall"
)

// lockLog takes a non-blocking exclusive advisory lock on a read-write
// log. Appends go to an in-memory end offset and a read-write open
// truncates any torn tail it finds, so two writers on one log would
// overwrite or truncate each other's frames; the lock makes the second
// writer fail at Open instead. It is released when f is closed.
func lockLog(f *os.File, path string) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("store: %s is open for writing by another process (one writer per store): %w", path, err)
	}
	return nil
}
