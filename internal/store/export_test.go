package store

// SetAfterAppend installs the hook a computing leader runs between its
// durable journal append and its memory insert.
func SetAfterAppend(s *Store, f func()) { s.afterAppend = f }
