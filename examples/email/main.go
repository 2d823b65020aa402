// Email: the paper's motivating groupware application (§3).  A shared
// mailbox is an OceanStore object written concurrently by many senders
// and read by one owner.  The example shows, and checks:
//
//   - the inbox's writers as a working group compiled to an ACL (§4.2),
//     reached by a sender through an SDSI-linked name (§4.1);
//   - concurrent deliveries serialised by the primary tier;
//   - search over the encrypted inbox, which servers answer without
//     learning the word;
//   - an ATOMIC MOVE between folders as a transaction guarded by the
//     version it read, so a racing move aborts instead of deleting a
//     second message;
//   - a sender removed from the group, whose next delivery the primary
//     tier refuses;
//   - disconnected operation: a partitioned reader keeps working
//     against tentative local state and reconciles on reconnection;
//   - the tier's commit certificate for one of the owner's writes,
//     checked offline against the tier's public keys (§4.4.3).
//
// Every claim is checked as the story goes; a failed check ends the
// program with a non-zero status.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"oceanstore"
	"oceanstore/internal/acl"
	"oceanstore/internal/byz"
	"oceanstore/internal/naming"
	"oceanstore/internal/update"
)

func main() {
	world := oceanstore.NewWorld(7, oceanstore.DefaultConfig())
	owner := world.NewClient("owner")
	sender1 := world.NewClient("sender1")
	sender2 := world.NewClient("sender2")

	// Two folders, each one object.  The inbox's writers are a working
	// group (§4.2): the owner compiles it into an ACL of signing keys
	// and certifies that ACL.
	inbox, err := owner.Create("inbox", nil)
	check(err)
	archive, err := owner.Create("archive", nil)
	check(err)
	check(owner.GrantRead(inbox, sender1))
	check(owner.GrantRead(inbox, sender2))
	senders := acl.NewGroup("senders")
	senders.Add(sender1.Signer.Public())
	senders.Add(sender2.Signer.Public())
	check(world.SetACL(owner, inbox, senders.ToACL(acl.PrivWrite), 2))

	// SDSI NAMES (§4.1): carol knows the owner as "alice", and links
	// that name to alice's own namespace, where "inbox" is bound to the
	// mailbox's GUID.  Carol delivers to whatever "alice inbox" names.
	alice := naming.NewNamespace()
	alice.BindPrincipal("inbox", inbox)
	carol := naming.NewNamespace()
	carol.Link("alice", alice)
	carolsInbox, err := carol.ResolveChain("alice", "inbox")
	check(err)
	expect(carolsInbox == inbox, "carol's name \"alice inbox\" resolves to the inbox %s", carolsInbox.Short())

	// Concurrent deliveries: each message is one logical block.
	s1 := sender1.NewSession(oceanstore.MonotonicWrites)
	s2 := sender2.NewSession(oceanstore.MonotonicWrites)
	_, err = s1.Append(carolsInbox, []byte("from carol: lunch?"))
	check(err)
	_, err = s2.Append(inbox, []byte("from dave: report attached"))
	check(err)
	_, err = s1.Append(carolsInbox, []byte("from carol: nevermind"))
	check(err)
	world.Run(time.Minute)

	mail := owner.NewSession(oceanstore.ACID)
	// The owner's mail reader refreshes via the callback interface
	// (§4.6) whenever anyone's delivery commits.
	newMail := 0
	mail.Watch(inbox, func(oceanstore.UpdateID) { newMail++ })
	fmt.Println("inbox after concurrent deliveries:")
	got := printFolder(mail, inbox)
	lunch, never := strings.Index(got, "lunch?"), strings.Index(got, "nevermind")
	expect(lunch >= 0 && never > lunch && strings.Count(got, "report attached") == 1,
		"every delivery landed once, carol's two in the order she sent them")

	// ENCRYPTED SEARCH (§4.4.2): the owner installs a word index built
	// under the inbox's read key; a search hands the server a trapdoor
	// for one word, and the server learns only whether it occurs.
	_, err = mail.SetSearchIndex(inbox, []string{"lunch", "report", "nevermind"})
	check(err)
	world.Run(time.Minute)
	found := map[string]bool{}
	for _, word := range []string{"report", "invoice"} {
		found[word], err = mail.Search(inbox, word)
		check(err)
		fmt.Printf("search the encrypted inbox for %q: %v\n", word, found[word])
	}
	expect(found["report"] && !found["invoice"], "the search finds the indexed word and only it")

	// ATOMIC MOVE of dave's message to the archive (§3: "some operations,
	// such as message move operations, must occur atomically").  A
	// transaction (§4.6) reads the inbox, stages the delete, and commits
	// one update guarded by the version it read; the append to the
	// archive is a second transaction, issued only once the first has
	// committed.  Meanwhile the owner's phone starts the same move from
	// the same snapshot.
	phone := owner.NewSession(oceanstore.ACID)
	move, err := mail.Begin(inbox)
	check(err)
	race, err := phone.Begin(inbox)
	check(err)
	snapshot, err := move.Read()
	check(err)
	fmt.Printf("\nmove transaction reads %q\n", snapshot)
	// Block 0 is the folder's empty initial block, and the messages
	// follow in commit order: dave's is block 2.
	check(move.Delete(2))
	_, err = move.Commit()
	check(err)
	world.Run(time.Minute)
	expect(move.Status() == oceanstore.TxCommitted, "the move transaction committed")
	file, err := mail.Begin(archive)
	check(err)
	check(file.Append([]byte("from dave: report attached")))
	_, err = file.Commit()
	check(err)
	world.Run(time.Minute)
	fmt.Println("after atomic move of dave's message to the archive:")
	fmt.Println("inbox:")
	moved := printFolder(mail, inbox)
	fmt.Println("archive:")
	filed := printFolder(mail, archive)
	expect(!strings.Contains(moved, "dave") && filed == "from dave: report attached",
		"dave's message left the inbox and is the archive's only message")

	// The phone's move of the SAME message commits second: its snapshot
	// predates the first move, so the version guard fails at the primary
	// tier and the transaction aborts instead of deleting another message.
	check(race.Delete(2))
	_, err = race.Commit()
	check(err)
	world.Run(time.Minute)
	fmt.Println("\nracing move:")
	expect(race.Status() == oceanstore.TxAborted && printFolder(mail, inbox) == moved,
		"the racing move aborted and the inbox is unchanged")

	// REVOCATION (§4.2): dave leaves the senders group.  The owner
	// compiles the group again and certifies it at a higher serial,
	// which withdraws dave's write privilege atomically; carol's stays.
	senders.Remove(sender2.Signer.Public())
	check(world.SetACL(owner, inbox, senders.ToACL(acl.PrivWrite), 3))
	_, err = s2.Append(inbox, []byte("from dave: one more thing"))
	check(err)
	_, err = s1.Append(carolsInbox, []byte("from carol: see you"))
	check(err)
	world.Run(time.Minute)
	fmt.Println("\nafter dave leaves the senders group and both send again:")
	got = printFolder(mail, inbox)
	expect(!strings.Contains(got, "one more thing") && strings.HasSuffix(got, "from carol: see you"),
		"the tier refused dave's delivery and accepted carol's")

	// DISCONNECTED OPERATION: partition the owner's node, keep reading
	// and writing against tentative state, then reconcile.
	fmt.Println("\n-- disconnected operation --")
	world.Pool.Net.SetPartition(owner.Node, 1) // owner alone in group 1
	offline := owner.NewSession(0)             // optimistic session
	draft, err := offline.Append(inbox, []byte("draft written while offline"))
	check(err)
	world.Run(30 * time.Second)
	fmt.Println("while partitioned, committed inbox still shows:")
	expect(printFolder(mail, inbox) == got, "the partitioned owner's draft has not committed")

	world.Pool.Net.ClearPartitions()
	// Client retransmission re-sends the update after reconnection.
	world.Run(2 * time.Minute)
	fmt.Println("after reconnection and reconciliation:")
	expect(printFolder(mail, inbox) == got+"draft written while offline",
		"after reconnection the draft committed, once, at the end of the inbox")

	// COMMIT CERTIFICATE (§4.4.3): the owner files a note through its
	// session and asks the primary tier for a certificate of its
	// commit.  The certificate carries the signatures of f+1 tier
	// members over (object, sequence number, update digest), so it can
	// be checked later, offline, by anyone holding the tier's public
	// keys.  The owner's client numbers its updates across its
	// sessions, so the note comes next after the offline draft.
	ed, _, err := mail.Editor(inbox)
	check(err)
	note := update.NewUnconditional(inbox, update.BlockOps(ed.Append([]byte("note: filed with a receipt"))))
	var receipt byz.Result
	mail.SubmitCertified(note, func(r byz.Result) { receipt = r })
	world.Run(time.Minute)
	ring, _ := world.Pool.Ring(inbox)
	keys := ring.Group().PublicKeys()
	f := (len(keys) - 1) / 3
	cert := receipt.Certificate
	fmt.Println("\nthe owner's note, filed with a commit certificate:")
	printFolder(mail, inbox)
	expect(receipt.Committed && cert.Verify(keys, f),
		"the certificate verifies against the tier's %d public keys with f = %d", len(keys), f)
	expect(note.Seq == draft.Seq+1, "the owner's session numbered the note %d, next after the offline draft", note.Seq)
	forged := *cert
	forged.Seq++
	expect(!forged.Verify(keys, f), "a copy claiming the next sequence number does not")

	// Since the watch was registered five writes to the inbox have
	// committed: the search index, the move, carol's last delivery, the
	// draft and the note.  The aborted move and dave's refused delivery
	// did not.
	expect(newMail == 5, "the watch callback fired once for each of the 5 commits since it was registered")
	fmt.Printf("email: all %d checks passed\n", checks)
}

// printFolder lists a mailbox's messages (one logical block each) and
// returns them.
func printFolder(sess *oceanstore.Session, folder oceanstore.GUID) string {
	data, err := sess.Read(folder)
	check(err)
	if len(data) == 0 {
		fmt.Println("  (empty)")
	} else {
		fmt.Printf("  %q\n", data)
	}
	return string(data)
}

// checks counts the claims expect has verified.
var checks int

// expect prints a claim the run has just verified, or, when it does not
// hold, ends the program with a non-zero status.
func expect(ok bool, format string, args ...any) {
	claim := fmt.Sprintf(format, args...)
	if !ok {
		log.Fatalf("check failed: %s", claim)
	}
	checks++
	fmt.Println("check:", claim)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
