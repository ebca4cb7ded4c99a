package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/publish"
	"strudel/internal/repository"
	"strudel/internal/sitegen"
	"strudel/internal/wrapper"
)

// sourceDef is one source as the builder registers it.
type sourceDef struct {
	name, kind string
	fetch      func() (string, error)
}

// isolated makes, in traced runs, the calls Rebuild performs out of
// sight of its own trace, each on the inputs the timed cycle just
// used: a shadow mediator over the same source texts, the wrapper of
// the edited source, graph.Diff on consecutive site graphs, and a
// publish of the new site. The timed cycle itself is never touched.
type isolated struct {
	lane    *lane
	med     *mediator.Mediator
	edited  sourceDef // the source the script edits
	text    string    // its text as the shadow mediator sees it
	fs      *memFS
	pub     *publish.Publisher
	lastPub *sitegen.Site

	deltaObjects sample
	files, bytes sample
	useful       sample // share of written pages whose bytes changed
}

// newIsolated primes a shadow mediator with the sources' current
// texts; edited names the source the script changes.
func newIsolated(ln *lane, sources []sourceDef, edited string) (*isolated, error) {
	iso := &isolated{lane: ln, med: mediator.New(repository.New(""), "DataGraph"), fs: newMemFS()}
	iso.pub = publish.New(iso.fs, "site", 2)
	for _, s := range sources {
		fetch := s.fetch
		if s.name == edited {
			iso.edited = s
			text, err := s.fetch()
			if err != nil {
				return nil, err
			}
			iso.text = text
			fetch = func() (string, error) { return iso.text, nil }
		}
		if err := iso.med.AddSourceFunc(s.name, s.kind, fetch); err != nil {
			return nil, err
		}
	}
	if _, _, err := iso.med.RefreshWithReport(); err != nil {
		return nil, err
	}
	return iso, nil
}

// mediate times a refresh of the shadow mediator on the edited text,
// a second refresh on the same text (nothing changed), and the
// edited source's wrapper alone.
func (iso *isolated) mediate(text string) error {
	iso.text = text
	var rep *mediator.RefreshReport
	var err error
	id := iso.lane.begin("mediator.RefreshWithReport", -1)
	_, rep, err = iso.med.RefreshWithReport()
	iso.lane.end(id)
	iso.lane.tag(id, "edit")
	if err != nil {
		return err
	}
	if d := rep.Warehouse; d != nil {
		iso.deltaObjects.add(float64(len(d.AddedObjects) + len(d.RemovedObjects) + len(d.ChangedObjects)))
	}
	id = iso.lane.begin("mediator.RefreshWithReport", -1)
	_, _, err = iso.med.RefreshWithReport()
	iso.lane.end(id)
	iso.lane.tag(id, "noop")
	if err != nil {
		return err
	}
	w, ok := wrapper.ByName(iso.edited.kind)
	if !ok {
		return fmt.Errorf("no wrapper %q", iso.edited.kind)
	}
	iso.lane.timed("wrapper.Wrap", -1, func() { err = w.Wrap(graph.New("src"), iso.edited.name, text) })
	return err
}

// diff times graph.Diff between consecutive site graphs.
func (iso *isolated) diff(prev, next *graph.Graph) {
	iso.lane.timed("graph.Diff", -1, func() { graph.Diff(prev, next) })
}

// publish times PublishSite of a changed build into an in-memory
// filesystem: the time is the publisher's own work (hashing, manifest),
// without the disk; the file and byte counts are exact.
func (iso *isolated) publish(site *sitegen.Site, id string) error {
	f0, b0 := iso.fs.counts()
	var err error
	iso.lane.timed("publish.PublishSite", -1, func() { _, err = iso.pub.PublishSite(site, id, time.Time{}) })
	if err != nil {
		return err
	}
	f1, b1 := iso.fs.counts()
	iso.files.add(float64(f1 - f0))
	iso.bytes.add(float64(b1 - b0))
	if prev := iso.lastPub; prev != nil && len(site.Pages) > 0 {
		changed := 0
		for path, pg := range site.Pages {
			if old, ok := prev.Pages[path]; !ok || old.HTML != pg.HTML {
				changed++
			}
		}
		iso.useful.add(float64(changed) / float64(f1-f0))
	}
	iso.lastPub = site
	return nil
}

// memFS is an in-memory fsx.FS that counts what is written to it.
type memFS struct {
	mu          sync.Mutex
	files       map[string][]byte
	dirs        map[string]bool
	nFiles, nBy int
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}, dirs: map[string]bool{".": true}} }

func (m *memFS) counts() (int, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nFiles, m.nBy
}

func (m *memFS) MkdirAll(p string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p = filepath.Clean(p); p != "." && p != "/"; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) WriteFile(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(name)] {
		return &fs.PathError{Op: "write", Path: name, Err: fs.ErrNotExist}
	}
	m.files[name] = append([]byte(nil), data...)
	m.nFiles++
	m.nBy += len(data)
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[oldpath]; ok {
		m.files[newpath] = f
		delete(m.files, oldpath)
		return nil
	}
	if !m.dirs[oldpath] {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	prefix := oldpath + "/"
	for p, f := range m.files {
		if strings.HasPrefix(p, prefix) {
			m.files[newpath+"/"+p[len(prefix):]] = f
			delete(m.files, p)
		}
	}
	for d := range m.dirs {
		if strings.HasPrefix(d, prefix) {
			m.dirs[newpath+"/"+d[len(prefix):]] = true
			delete(m.dirs, d)
		}
	}
	delete(m.dirs, oldpath)
	m.dirs[newpath] = true
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	delete(m.dirs, name)
	return nil
}

func (m *memFS) RemoveAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := p + "/"
	for f := range m.files {
		if f == p || strings.HasPrefix(f, prefix) {
			delete(m.files, f)
		}
	}
	for d := range m.dirs {
		if d == p || strings.HasPrefix(d, prefix) {
			delete(m.dirs, d)
		}
	}
	return nil
}

func (m *memFS) Sync(string) error { return nil }

func (m *memFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return io.NopCloser(bytes.NewReader(f)), nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	var out []fs.DirEntry
	for f, data := range m.files {
		if filepath.Dir(f) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(f), int64(len(data)), false}))
		}
	}
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(d), 0, true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return memInfo{filepath.Base(name), int64(len(f)), false}, nil
	}
	if m.dirs[name] {
		return memInfo{filepath.Base(name), 0, true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
