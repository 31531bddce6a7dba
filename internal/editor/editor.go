// Package editor implements the document-editing core of xTagger, the
// paper's authoring tool for multihierarchical document-centric XML
// (§4 and reference [4]): select a fragment, choose markup from any of
// the document's hierarchies, and have *prevalidation* veto insertions
// that could never be extended to a valid encoding (reference [5]).
//
// A Session wraps a GODDAG with a concurrent markup schema (one DTD per
// hierarchy), an undo/redo history, and change notifications for
// presentation layers.
//
// Edits can be batched in transactions (Begin/Commit/Rollback): each
// operation is prevalidated as it is issued, but the batch commits — or
// is vetoed — atomically, costs one undo entry and one change
// notification, and snapshots the document only once however many
// operations it carries. The HTTP edit endpoint (internal/server)
// applies each request body as one transaction.
package editor

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"repro/internal/document"
	"repro/internal/dtd"
	"repro/internal/goddag"
	"repro/internal/validate"
)

// History sentinel errors, for errors.Is checks by presentation layers
// (the HTTP server maps them to 409).
var (
	ErrNothingToUndo = errors.New("editor: nothing to undo")
	ErrNothingToRedo = errors.New("editor: nothing to redo")
)

// ChangeKind discriminates edit notifications.
type ChangeKind int

// Change kinds.
const (
	ChangeInsertMarkup ChangeKind = iota
	ChangeRemoveMarkup
	ChangeSetAttr
	ChangeRemoveAttr
	ChangeInsertText
	ChangeDeleteText
	ChangeUndo
	ChangeRedo
	ChangeTransaction
)

// String returns the change kind name.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsertMarkup:
		return "insert-markup"
	case ChangeRemoveMarkup:
		return "remove-markup"
	case ChangeSetAttr:
		return "set-attr"
	case ChangeRemoveAttr:
		return "remove-attr"
	case ChangeInsertText:
		return "insert-text"
	case ChangeDeleteText:
		return "delete-text"
	case ChangeUndo:
		return "undo"
	case ChangeRedo:
		return "redo"
	case ChangeTransaction:
		return "transaction"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// Change describes one applied edit.
type Change struct {
	Kind      ChangeKind
	Hierarchy string
	Tag       string
	Span      document.Span
	Detail    string
}

// Options configure a session.
type Options struct {
	// Prevalidate makes every markup insertion pass the potential
	// validity check against the hierarchy's DTD before it is applied
	// (xTagger's signature feature). Insertion into hierarchies without
	// a DTD is always allowed.
	Prevalidate bool
	// HistoryLimit bounds the undo stack (0 means DefaultHistoryLimit).
	HistoryLimit int
}

// DefaultHistoryLimit is the default undo depth.
const DefaultHistoryLimit = 64

// Session is an editing session over a GODDAG document.
type Session struct {
	doc    *goddag.Document
	schema *validate.Schema
	opts   Options

	undo      []snapshot // states before each applied op/transaction
	redo      []snapshot
	histBytes int64 // sum of the bytes of every undo and redo snapshot
	listeners []func(Change)
	tx        *Tx // open transaction, nil otherwise
}

// snapshot is one history entry: a document state and its footprint,
// measured once as it enters the history. A state on a history stack is
// never mutated, so its footprint cannot drift while it waits there.
type snapshot struct {
	doc   *goddag.Document
	bytes int64
}

// NewSession starts a session. schema may be nil (no validation).
func NewSession(doc *goddag.Document, schema *validate.Schema, opts Options) *Session {
	if opts.HistoryLimit == 0 {
		opts.HistoryLimit = DefaultHistoryLimit
	}
	if schema == nil {
		schema = validate.NewSchema()
	}
	return &Session{doc: doc, schema: schema, opts: opts}
}

// Document returns the live document. Mutating it directly bypasses
// history and prevalidation.
func (s *Session) Document() *goddag.Document { return s.doc }

// HistoryFootprint estimates the heap bytes held by the undo/redo
// snapshot stacks (goddag.Footprint per snapshot). Serving layers add
// it to the live document's footprint when budgeting resident memory —
// an actively edited document holds up to HistoryLimit full snapshots.
// It is O(1): each snapshot is measured once, when it enters the
// history, and the sum is kept as entries come and go.
func (s *Session) HistoryFootprint() int64 { return s.histBytes }

// SetPrevalidate toggles the prevalidation veto for subsequent markup
// insertions, in place: history, listeners, and any open transaction
// are unaffected (ops issued after the call see the new setting).
func (s *Session) SetPrevalidate(on bool) { s.opts.Prevalidate = on }

// Prevalidating reports whether insertions are prevalidated.
func (s *Session) Prevalidating() bool { return s.opts.Prevalidate }

// Schema returns the session's concurrent markup schema.
func (s *Session) Schema() *validate.Schema { return s.schema }

// OnChange registers a change listener, called after each applied edit.
func (s *Session) OnChange(f func(Change)) { s.listeners = append(s.listeners, f) }

func (s *Session) notify(c Change) {
	for _, f := range s.listeners {
		f(c)
	}
}

// push adds d to a history stack, measuring it once.
func (s *Session) push(stack []snapshot, d *goddag.Document) []snapshot {
	fp := d.Footprint()
	s.histBytes += fp
	return append(stack, snapshot{doc: d, bytes: fp})
}

// pop removes and returns the top of a history stack.
func (s *Session) pop(stack *[]snapshot) *goddag.Document {
	n := len(*stack) - 1
	top := (*stack)[n]
	*stack = (*stack)[:n]
	s.histBytes -= top.bytes
	return top.doc
}

// record enters the pre-edit state of a committed edit into the
// history: it pushes an undo entry, drops the oldest past the history
// limit, and clears the redo stack.
func (s *Session) record(before *goddag.Document) {
	s.undo = s.push(s.undo, before)
	if len(s.undo) > s.opts.HistoryLimit {
		s.histBytes -= s.undo[0].bytes
		s.undo[0] = snapshot{} // release the dropped state
		s.undo = s.undo[1:]
	}
	for _, r := range s.redo {
		s.histBytes -= r.bytes
	}
	s.redo = nil
}

// edit runs one direct session edit: it snapshots the document, applies
// the edit, and records the snapshot only if the edit succeeded, so a
// failed edit leaves the history exactly as it was.
func (s *Session) edit(apply func() error) error {
	if err := s.mutable(); err != nil {
		return err
	}
	before := s.doc.Clone()
	if err := apply(); err != nil {
		return err
	}
	s.record(before)
	return nil
}

// CanUndo reports whether Undo would succeed.
func (s *Session) CanUndo() bool { return len(s.undo) > 0 && s.tx == nil }

// CanRedo reports whether Redo would succeed.
func (s *Session) CanRedo() bool { return len(s.redo) > 0 && s.tx == nil }

// mutable guards direct session edits and history moves against running
// inside an open transaction.
func (s *Session) mutable() error {
	if s.tx != nil {
		return fmt.Errorf("editor: a transaction is open; commit or roll it back first")
	}
	return nil
}

// Undo reverts the most recent edit or committed transaction.
func (s *Session) Undo() error {
	if err := s.mutable(); err != nil {
		return err
	}
	if len(s.undo) == 0 {
		return ErrNothingToUndo
	}
	prev := s.pop(&s.undo)
	s.redo = s.push(s.redo, s.doc)
	s.doc = prev
	s.notify(Change{Kind: ChangeUndo})
	return nil
}

// Redo re-applies the most recently undone edit.
func (s *Session) Redo() error {
	if err := s.mutable(); err != nil {
		return err
	}
	if len(s.redo) == 0 {
		return ErrNothingToRedo
	}
	next := s.pop(&s.redo)
	s.undo = s.push(s.undo, s.doc)
	s.doc = next
	s.notify(Change{Kind: ChangeRedo})
	return nil
}

// applyInsertMarkup is the shared core of InsertMarkup and Tx.InsertMarkup:
// prevalidation plus insertion, without history or notification. Failed
// insertions mutate nothing (InsertElement is atomic on error; a
// just-created empty hierarchy is unwound here).
func (s *Session) applyInsertMarkup(hierarchy, tag string, span document.Span, attrs []goddag.Attr) (*goddag.Element, error) {
	h := s.doc.Hierarchy(hierarchy)
	created := false
	if h == nil {
		h = s.doc.AddHierarchy(hierarchy)
		created = true
	}
	fail := func(err error) (*goddag.Element, error) {
		if created {
			s.doc.RemoveHierarchy(hierarchy)
		}
		return nil, err
	}
	if s.opts.Prevalidate {
		if err := validate.CheckInsertion(s.doc, h, s.schema.DTD(hierarchy), tag, span); err != nil {
			return fail(fmt.Errorf("editor: prevalidation rejected <%s>%v in %s: %w", tag, span, hierarchy, err))
		}
	}
	el, err := s.doc.InsertElement(h, tag, attrs, span)
	if err != nil {
		return fail(err)
	}
	return el, nil
}

// InsertMarkup inserts an element over span into the named hierarchy,
// after prevalidation when enabled. The hierarchy is created on first
// use. It returns the inserted element. Failed insertions leave the
// session exactly as it was.
func (s *Session) InsertMarkup(hierarchy, tag string, span document.Span, attrs ...goddag.Attr) (*goddag.Element, error) {
	var el *goddag.Element
	if err := s.edit(func() (err error) {
		el, err = s.applyInsertMarkup(hierarchy, tag, span, attrs)
		return err
	}); err != nil {
		return nil, err
	}
	s.notify(Change{Kind: ChangeInsertMarkup, Hierarchy: hierarchy, Tag: tag, Span: span})
	return el, nil
}

// applyRemoveMarkup is the shared core of RemoveMarkup and Tx.RemoveMarkup.
func (s *Session) applyRemoveMarkup(el *goddag.Element) (Change, error) {
	if el == nil {
		return Change{}, fmt.Errorf("editor: nil element")
	}
	c := Change{Kind: ChangeRemoveMarkup, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Span: el.Span()}
	if err := s.doc.RemoveElement(el); err != nil {
		return Change{}, err
	}
	return c, nil
}

// RemoveMarkup deletes an element; its children are adopted by its
// parent.
func (s *Session) RemoveMarkup(el *goddag.Element) error {
	var c Change
	if err := s.edit(func() (err error) {
		c, err = s.applyRemoveMarkup(el)
		return err
	}); err != nil {
		return err
	}
	s.notify(c)
	return nil
}

// applySetAttr is the shared core of SetAttr and Tx.SetAttr: DTD
// attribute validation plus the edit.
func (s *Session) applySetAttr(el *goddag.Element, name, value string) error {
	if el == nil {
		return fmt.Errorf("editor: nil element")
	}
	if d := s.schema.DTD(el.Hierarchy().Name()); d != nil {
		if decl := d.Element(el.Name()); decl != nil {
			if def := decl.AttDef(name); def != nil {
				if def.Type == "enum" {
					ok := false
					for _, v := range def.Enum {
						if v == value {
							ok = true
							break
						}
					}
					if !ok {
						return fmt.Errorf("editor: %s=%q not in enumeration for <%s>", name, value, el.Name())
					}
				}
				if def.Default == dtd.DefaultFixed && value != def.Value {
					return fmt.Errorf("editor: %s must be fixed %q on <%s>", name, def.Value, el.Name())
				}
			}
		}
	}
	el.SetAttr(name, value)
	return nil
}

// SetAttr sets an attribute, validating enumerated/fixed values against
// the DTD when the session has one for the element's hierarchy.
func (s *Session) SetAttr(el *goddag.Element, name, value string) error {
	if err := s.edit(func() error { return s.applySetAttr(el, name, value) }); err != nil {
		return err
	}
	s.notify(Change{Kind: ChangeSetAttr, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Detail: name + "=" + value})
	return nil
}

// applyRemoveAttr is the shared core of RemoveAttr and Tx.RemoveAttr.
func (s *Session) applyRemoveAttr(el *goddag.Element, name string) error {
	if el == nil {
		return fmt.Errorf("editor: nil element")
	}
	if !el.RemoveAttr(name) {
		return fmt.Errorf("editor: no attribute %q on %v", name, el)
	}
	return nil
}

// RemoveAttr deletes an attribute.
func (s *Session) RemoveAttr(el *goddag.Element, name string) error {
	if err := s.edit(func() error { return s.applyRemoveAttr(el, name) }); err != nil {
		return err
	}
	s.notify(Change{Kind: ChangeRemoveAttr, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Detail: name})
	return nil
}

// InsertText inserts text at a byte offset, adjusting all markup.
func (s *Session) InsertText(pos int, text string) error {
	if err := s.edit(func() error { return s.doc.InsertText(pos, text) }); err != nil {
		return err
	}
	s.notify(Change{Kind: ChangeInsertText, Span: document.NewSpan(pos, pos+len(text))})
	return nil
}

// DeleteText removes a span of text, adjusting all markup; elements whose
// content is entirely deleted remain as empty milestones.
func (s *Session) DeleteText(span document.Span) error {
	if err := s.edit(func() error { return s.doc.DeleteText(span) }); err != nil {
		return err
	}
	s.notify(Change{Kind: ChangeDeleteText, Span: span})
	return nil
}

// Validate runs the schema over every hierarchy in the given mode.
func (s *Session) Validate(mode validate.Mode) []validate.Violation {
	return validate.Document(s.doc, s.schema, mode)
}

// Tx is an open editing transaction: a batch of markup and attribute
// operations applied to the live document as they are issued (each one
// prevalidated like a direct session edit) but committed — or vetoed —
// atomically. A committed transaction collapses to ONE undo entry and
// ONE change notification however many operations it batched; a failed
// operation poisons the transaction, and Commit (or Rollback) then
// restores the document to its pre-transaction state.
//
// One transaction may be open per session at a time; direct session
// edits and history moves are rejected while it is open. Elements
// obtained before Begin remain valid inside the transaction (operations
// mutate the live document); after a Rollback — or an Undo of the
// committed transaction — the session's document is the restored
// snapshot and previously held elements no longer belong to it.
type Tx struct {
	s        *Session
	snapshot *goddag.Document
	ops      []Change
	err      error
	done     bool
}

// Begin opens a transaction. It fails if one is already open.
func (s *Session) Begin() (*Tx, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("editor: a transaction is already open")
	}
	tx := &Tx{s: s, snapshot: s.doc.Clone()}
	s.tx = tx
	return tx, nil
}

// InTx reports whether the session has an open transaction.
func (s *Session) InTx() bool { return s.tx != nil }

// Err returns the operation error that poisoned the transaction, nil
// while it can still commit.
func (tx *Tx) Err() error { return tx.err }

// Ops returns the operations applied so far, one Change per successful
// operation.
func (tx *Tx) Ops() []Change { return tx.ops }

// guard rejects operations on closed or poisoned transactions.
func (tx *Tx) guard() error {
	if tx.done {
		return fmt.Errorf("editor: transaction already closed")
	}
	if tx.err != nil {
		return fmt.Errorf("editor: transaction aborted: %w", tx.err)
	}
	return nil
}

// fail poisons the transaction with the first operation error.
func (tx *Tx) fail(err error) error {
	tx.err = err
	return err
}

// InsertMarkup inserts an element within the transaction, prevalidated
// like Session.InsertMarkup. A failure poisons the transaction.
func (tx *Tx) InsertMarkup(hierarchy, tag string, span document.Span, attrs ...goddag.Attr) (*goddag.Element, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	el, err := tx.s.applyInsertMarkup(hierarchy, tag, span, attrs)
	if err != nil {
		return nil, tx.fail(err)
	}
	tx.ops = append(tx.ops, Change{Kind: ChangeInsertMarkup, Hierarchy: hierarchy, Tag: tag, Span: span})
	return el, nil
}

// RemoveMarkup deletes an element within the transaction.
func (tx *Tx) RemoveMarkup(el *goddag.Element) error {
	if err := tx.guard(); err != nil {
		return err
	}
	c, err := tx.s.applyRemoveMarkup(el)
	if err != nil {
		return tx.fail(err)
	}
	tx.ops = append(tx.ops, c)
	return nil
}

// SetAttr sets an attribute within the transaction, validated against
// the hierarchy's DTD like Session.SetAttr.
func (tx *Tx) SetAttr(el *goddag.Element, name, value string) error {
	if err := tx.guard(); err != nil {
		return err
	}
	if err := tx.s.applySetAttr(el, name, value); err != nil {
		return tx.fail(err)
	}
	tx.ops = append(tx.ops, Change{Kind: ChangeSetAttr, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Detail: name + "=" + value})
	return nil
}

// RemoveAttr deletes an attribute within the transaction.
func (tx *Tx) RemoveAttr(el *goddag.Element, name string) error {
	if err := tx.guard(); err != nil {
		return err
	}
	if err := tx.s.applyRemoveAttr(el, name); err != nil {
		return tx.fail(err)
	}
	tx.ops = append(tx.ops, Change{Kind: ChangeRemoveAttr, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Detail: name})
	return nil
}

// InsertText inserts text within the transaction.
func (tx *Tx) InsertText(pos int, text string) error {
	if err := tx.guard(); err != nil {
		return err
	}
	if err := tx.s.doc.InsertText(pos, text); err != nil {
		return tx.fail(err)
	}
	tx.ops = append(tx.ops, Change{Kind: ChangeInsertText, Span: document.NewSpan(pos, pos+len(text))})
	return nil
}

// DeleteText removes a span of text within the transaction.
func (tx *Tx) DeleteText(span document.Span) error {
	if err := tx.guard(); err != nil {
		return err
	}
	if err := tx.s.doc.DeleteText(span); err != nil {
		return tx.fail(err)
	}
	tx.ops = append(tx.ops, Change{Kind: ChangeDeleteText, Span: span})
	return nil
}

// Commit closes the transaction. A clean transaction with at least one
// operation pushes one undo entry (the pre-transaction snapshot), clears
// the redo stack, and emits one ChangeTransaction notification. A
// poisoned transaction rolls the document back to the snapshot and
// returns the poisoning error. An empty transaction is a no-op.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("editor: transaction already closed")
	}
	tx.done = true
	s := tx.s
	s.tx = nil
	if tx.err != nil {
		s.doc = tx.snapshot
		return fmt.Errorf("editor: transaction rolled back: %w", tx.err)
	}
	if len(tx.ops) == 0 {
		return nil
	}
	s.record(tx.snapshot)
	s.notify(Change{Kind: ChangeTransaction, Detail: fmt.Sprintf("%d ops", len(tx.ops))})
	return nil
}

// Rollback closes the transaction and restores the document to its
// pre-transaction state, whether or not any operation failed.
func (tx *Tx) Rollback() error {
	if tx.done {
		return fmt.Errorf("editor: transaction already closed")
	}
	tx.done = true
	tx.s.tx = nil
	tx.s.doc = tx.snapshot
	return nil
}

// SelectWord returns the byte span of the whitespace-delimited word
// containing byte offset pos — the editor's double-click selection. An
// offset pointing into the middle of a multibyte rune selects the word
// containing that rune.
func (s *Session) SelectWord(pos int) (document.Span, error) {
	c := s.doc.Content()
	if pos < 0 || pos >= c.Len() {
		return document.Span{}, fmt.Errorf("editor: offset %d out of range [0,%d)", pos, c.Len())
	}
	text := c.String()
	for pos > 0 && !utf8.RuneStart(text[pos]) {
		pos--
	}
	isSpace := func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' }
	if r, _ := utf8.DecodeRuneInString(text[pos:]); isSpace(r) {
		return document.Span{}, fmt.Errorf("editor: offset %d is whitespace", pos)
	}
	lo := pos
	for lo > 0 {
		r, size := utf8.DecodeLastRuneInString(text[:lo])
		if isSpace(r) {
			break
		}
		lo -= size
	}
	hi := pos
	for hi < len(text) {
		r, size := utf8.DecodeRuneInString(text[hi:])
		if isSpace(r) {
			break
		}
		hi += size
	}
	return document.NewSpan(lo, hi), nil
}
