package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"oceanstore/internal/guid"
	"oceanstore/internal/naming"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// FS is the Unix file system facade of §4.6: a traditional hierarchical
// interface layered over OceanStore objects.  Directories are objects
// holding an encoded name→GUID table; files are plain objects.  All the
// ubiquity, durability and security properties come for free from the
// substrate.
type FS struct {
	sess *Session
	root guid.GUID
	// names tracks the creation names of objects so unique object names
	// can be derived from paths.
	prefix string
}

// NewFS creates a file system rooted in a fresh directory object.
func (c *Client) NewFS(name string) (*FS, error) {
	sess := c.NewSession(ReadYourWrites | MonotonicReads | ReadCommitted)
	root, err := c.Create("fs:"+name+":/", naming.NewDirectory().Encode())
	if err != nil {
		return nil, err
	}
	return &FS{sess: sess, root: root, prefix: "fs:" + name + ":"}, nil
}

// Session exposes the facade's underlying session.
func (f *FS) Session() *Session { return f.sess }

// Root returns the root directory's GUID.
func (f *FS) Root() guid.GUID { return f.root }

func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("fs: path %q must be absolute", path)
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		if c != "" {
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// readDir loads and decodes a directory object.
func (f *FS) readDir(dir guid.GUID) (*naming.Directory, error) {
	data, err := f.sess.Read(dir)
	if err != nil {
		return nil, err
	}
	return naming.DecodeDirectory(data)
}

// writeDir replaces a directory object's content.
func (f *FS) writeDir(dir guid.GUID, d *naming.Directory) error {
	return f.overwrite(dir, d.Encode())
}

// overwrite replaces an object's whole logical content atomically:
// truncate plus re-append, in one update.
func (f *FS) overwrite(obj guid.GUID, data []byte) error {
	bc, ok := f.sess.c.Keys.Cipher(obj)
	if !ok {
		return errors.New("fs: no key for object")
	}
	// Build append ops against the post-truncate (empty) state.
	ed, err := object.EditorWith(&object.Version{}, bc)
	if err != nil {
		return err
	}
	actions := []update.Action{{Kind: update.ActTruncate}}
	bs := f.sess.c.pool.cfg.BlockSize
	for off := 0; off < len(data) || off == 0; off += bs {
		end := off + bs
		if end > len(data) {
			end = len(data)
		}
		actions = append(actions, update.BlockOps(ed.Append(data[off:end]))...)
		if end == len(data) {
			break
		}
	}
	u := update.NewUnconditional(obj, actions)
	f.sess.Submit(u)
	return nil
}

// walk resolves all but the last component, returning the containing
// directory's GUID and the final name.
func (f *FS) walk(path string) (guid.GUID, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return guid.Zero, "", err
	}
	if len(parts) == 0 {
		return guid.Zero, "", errors.New("fs: empty path")
	}
	cur := f.root
	for _, comp := range parts[:len(parts)-1] {
		d, err := f.readDir(cur)
		if err != nil {
			return guid.Zero, "", err
		}
		e, ok := d.Lookup(comp)
		if !ok {
			return guid.Zero, "", fmt.Errorf("fs: %q: no such directory", comp)
		}
		if !e.Dir {
			return guid.Zero, "", fmt.Errorf("fs: %q is not a directory", comp)
		}
		cur = e.GUID
	}
	return cur, parts[len(parts)-1], nil
}

// Mkdir creates a directory.
func (f *FS) Mkdir(path string) error {
	parent, name, err := f.walk(path)
	if err != nil {
		return err
	}
	d, err := f.readDir(parent)
	if err != nil {
		return err
	}
	if _, exists := d.Lookup(name); exists {
		return fmt.Errorf("fs: %q exists", path)
	}
	sub, err := f.sess.c.Create(f.prefix+path, naming.NewDirectory().Encode())
	if err != nil {
		return err
	}
	if err := d.Bind(name, sub, true); err != nil {
		return err
	}
	return f.writeDir(parent, d)
}

// WriteFile creates or overwrites a file with data.
func (f *FS) WriteFile(path string, data []byte) error {
	parent, name, err := f.walk(path)
	if err != nil {
		return err
	}
	d, err := f.readDir(parent)
	if err != nil {
		return err
	}
	if e, exists := d.Lookup(name); exists {
		if e.Dir {
			return fmt.Errorf("fs: %q is a directory", path)
		}
		return f.overwrite(e.GUID, data)
	}
	file, err := f.sess.c.Create(f.prefix+path, data)
	if err != nil {
		return err
	}
	if err := d.Bind(name, file, false); err != nil {
		return err
	}
	return f.writeDir(parent, d)
}

// ReadFile returns a file's contents.
func (f *FS) ReadFile(path string) ([]byte, error) {
	parent, name, err := f.walk(path)
	if err != nil {
		return nil, err
	}
	d, err := f.readDir(parent)
	if err != nil {
		return nil, err
	}
	e, ok := d.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("fs: %q: no such file", path)
	}
	if e.Dir {
		return nil, fmt.Errorf("fs: %q is a directory", path)
	}
	return f.sess.Read(e.GUID)
}

// ReadDir lists a directory's entries, sorted by name.
func (f *FS) ReadDir(path string) ([]string, error) {
	dir := f.root
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) > 0 {
		parent, name, err := f.walk(path)
		if err != nil {
			return nil, err
		}
		d, err := f.readDir(parent)
		if err != nil {
			return nil, err
		}
		e, ok := d.Lookup(name)
		if !ok || !e.Dir {
			return nil, fmt.Errorf("fs: %q: not a directory", path)
		}
		dir = e.GUID
	}
	d, err := f.readDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for n, e := range d.Entries {
		if e.Dir {
			names = append(names, n+"/")
		} else {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename moves a binding to a new path.  Within one directory this is
// a single directory update (atomic); across directories the new
// binding appears before the old one disappears, so a crash in between
// leaves a hard link rather than a lost file.
func (f *FS) Rename(oldPath, newPath string) error {
	oldParent, oldName, err := f.walk(oldPath)
	if err != nil {
		return err
	}
	newParent, newName, err := f.walk(newPath)
	if err != nil {
		return err
	}
	od, err := f.readDir(oldParent)
	if err != nil {
		return err
	}
	e, ok := od.Lookup(oldName)
	if !ok {
		return fmt.Errorf("fs: %q: no such entry", oldPath)
	}
	if oldParent == newParent {
		if _, exists := od.Lookup(newName); exists {
			return fmt.Errorf("fs: %q exists", newPath)
		}
		od.Unbind(oldName)
		if err := od.Bind(newName, e.GUID, e.Dir); err != nil {
			return err
		}
		return f.writeDir(oldParent, od)
	}
	nd, err := f.readDir(newParent)
	if err != nil {
		return err
	}
	if _, exists := nd.Lookup(newName); exists {
		return fmt.Errorf("fs: %q exists", newPath)
	}
	if err := nd.Bind(newName, e.GUID, e.Dir); err != nil {
		return err
	}
	if err := f.writeDir(newParent, nd); err != nil {
		return err
	}
	od.Unbind(oldName)
	return f.writeDir(oldParent, od)
}

// Lookup resolves a path to its object GUID, so callers can drop down
// to the native API (e.g. to read an old version).
func (f *FS) Lookup(path string) (guid.GUID, error) {
	parent, name, err := f.walk(path)
	if err != nil {
		return guid.Zero, err
	}
	d, err := f.readDir(parent)
	if err != nil {
		return guid.Zero, err
	}
	e, ok := d.Lookup(name)
	if !ok {
		return guid.Zero, fmt.Errorf("fs: %q: no such entry", path)
	}
	return e.GUID, nil
}
