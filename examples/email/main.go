// Email: the paper's motivating groupware application (§3).  A shared
// mailbox is an OceanStore object written concurrently by many senders
// and read by one owner.  The example shows:
//
//   - concurrent deliveries serialised by the primary tier;
//   - search over the encrypted inbox, which servers answer without
//     learning the word;
//   - an ATOMIC MOVE between folders as a transaction guarded by the
//     version it read, so a racing move aborts instead of deleting a
//     second message;
//   - disconnected operation: a partitioned reader keeps working
//     against tentative local state and reconciles on reconnection.
package main

import (
	"fmt"
	"log"
	"time"

	"oceanstore"
)

func main() {
	world := oceanstore.NewWorld(7, oceanstore.DefaultConfig())
	owner := world.NewClient("owner")
	sender1 := world.NewClient("sender1")
	sender2 := world.NewClient("sender2")

	// Two folders, each one object.  The owner grants senders write
	// privilege on the inbox only.
	inbox, err := owner.Create("inbox", nil)
	check(err)
	archive, err := owner.Create("archive", nil)
	check(err)
	check(owner.GrantRead(inbox, sender1))
	check(owner.GrantRead(inbox, sender2))
	check(world.SetACL(owner, inbox, &oceanstore.ACL{Entries: []oceanstore.ACLEntry{
		{PubKey: sender1.Signer.Public(), Priv: oceanstore.PrivWrite},
		{PubKey: sender2.Signer.Public(), Priv: oceanstore.PrivWrite},
	}}, 2))

	// Concurrent deliveries: each message is one logical block.
	s1 := sender1.NewSession(oceanstore.MonotonicWrites)
	s2 := sender2.NewSession(oceanstore.MonotonicWrites)
	_, err = s1.Append(inbox, []byte("from carol: lunch?"))
	check(err)
	_, err = s2.Append(inbox, []byte("from dave: report attached"))
	check(err)
	_, err = s1.Append(inbox, []byte("from carol: nevermind"))
	check(err)
	world.Run(time.Minute)

	os := owner.NewSession(oceanstore.ACID)
	// The owner's mail reader refreshes via the callback interface
	// (§4.6) whenever anyone's delivery commits.
	newMail := 0
	os.Watch(inbox, func(oceanstore.UpdateID) { newMail++ })
	fmt.Println("inbox after concurrent deliveries:")
	printFolder(os, inbox)

	// ENCRYPTED SEARCH (§4.4.2): the owner installs a word index built
	// under the inbox's read key; a search hands the server a trapdoor
	// for one word, and the server learns only whether it occurs.
	_, err = os.SetSearchIndex(inbox, []string{"lunch", "report", "nevermind"})
	check(err)
	world.Run(time.Minute)
	for _, word := range []string{"report", "invoice"} {
		found, err := os.Search(inbox, word)
		check(err)
		fmt.Printf("search the encrypted inbox for %q: %v\n", word, found)
	}

	// ATOMIC MOVE of dave's message to the archive (§3: "some operations,
	// such as message move operations, must occur atomically").  A
	// transaction (§4.6) reads the inbox, stages the delete, and commits
	// one update guarded by the version it read; the append to the
	// archive is a second transaction, issued only once the first has
	// committed.  Meanwhile the owner's phone starts the same move from
	// the same snapshot.
	phone := owner.NewSession(oceanstore.ACID)
	move, err := os.Begin(inbox)
	check(err)
	race, err := phone.Begin(inbox)
	check(err)
	snapshot, err := move.Read()
	check(err)
	fmt.Printf("\nmove transaction reads %q\n", snapshot)
	// Block 0 is the folder's empty initial block; dave's message is 1.
	check(move.Delete(1))
	_, err = move.Commit()
	check(err)
	world.Run(time.Minute)
	if move.Status() == oceanstore.TxCommitted {
		file, err := os.Begin(archive)
		check(err)
		check(file.Append([]byte("from dave: report attached")))
		_, err = file.Commit()
		check(err)
		world.Run(time.Minute)
	}
	fmt.Println("after atomic move of dave's message to the archive:")
	fmt.Println("inbox:")
	printFolder(os, inbox)
	fmt.Println("archive:")
	printFolder(os, archive)

	// The phone's move of the SAME message commits second: its snapshot
	// predates the first move, so the version guard fails at the primary
	// tier and the transaction aborts instead of deleting another message.
	check(race.Delete(1))
	_, err = race.Commit()
	check(err)
	world.Run(time.Minute)
	if race.Status() == oceanstore.TxAborted {
		fmt.Println("\nracing move: aborted, the inbox is unchanged")
		printFolder(os, inbox)
	}

	// DISCONNECTED OPERATION: partition the owner's node, keep reading
	// and writing against tentative state, then reconcile.
	fmt.Println("\n-- disconnected operation --")
	world.Pool.Net.SetPartition(owner.Node, 1) // owner alone in group 1
	offline := owner.NewSession(0)             // optimistic session
	_, err = offline.Append(inbox, []byte("draft written while offline"))
	check(err)
	world.Run(30 * time.Second)
	fmt.Println("while partitioned, committed inbox still shows:")
	printFolder(os, inbox)

	world.Pool.Net.ClearPartitions()
	// Client retransmission re-sends the update after reconnection.
	world.Run(2 * time.Minute)
	fmt.Println("after reconnection and reconciliation:")
	printFolder(os, inbox)
	fmt.Printf("watch callbacks fired for %d commits since registration\n", newMail)
}

// printFolder lists a mailbox's messages (one logical block each).
func printFolder(sess *oceanstore.Session, folder oceanstore.GUID) {
	data, err := sess.Read(folder)
	check(err)
	if len(data) == 0 {
		fmt.Println("  (empty)")
		return
	}
	fmt.Printf("  %q\n", data)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
