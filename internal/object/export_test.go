package object

// Latest returns the newest version.
func (h *History) Latest() *Version { return h.versions[len(h.versions)-1] }
