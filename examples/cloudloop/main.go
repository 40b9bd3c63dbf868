// Cloud loop: the device/cloud split of Fig. 10 over real HTTP. A
// profiler service runs on localhost; a simulated device records
// sessions, uploads the events-only logs, asks for a rebuild, fetches the
// OTA table, and plays with SNIP.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"snip"
)

func main() {
	// Start the cloud profiler on an ephemeral localhost port.
	svc := snip.NewCloudService(snip.DefaultPFIOptions(), snip.CloudServiceOptions{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: svc.Handler()}
	go server.Serve(ln)
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("cloud profiler listening on", base)

	const game = "Greenwall"
	client := snip.NewCloudClient(base)

	// The device plays 8 sessions, uploading only the event logs (the
	// paper's lightweight client-side recording).
	for i := 0; i < 8; i++ {
		seed := uint64(0xA1 + i)
		if err := client.RecordAndUpload(game, seed, 45*time.Second); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("uploaded session %d (seed %#x)\n", i+1, seed)
	}

	// The cloud replays the logs in the emulator, runs PFI and builds
	// the table.
	if err := client.Rebuild(game); err != nil {
		log.Fatal(err)
	}
	table, sel, err := client.FetchTable(game)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OTA table: %d rows, %d bytes; PFI coverage %.1f%% with %.3f%% persistent error\n",
		table.Rows(), table.SizeBytes(), 100*sel.Coverage, 100*sel.PersistentError)

	// The device plays a NEW session with the fetched table.
	baseline, err := snip.Play(snip.Options{Game: game})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := snip.Play(snip.Options{
		Game: game, Scheme: snip.SchemeSNIP, Table: table, CheckCorrectness: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed: %.1f%% of execution snipped, %.1f%% energy saved (battery %.1f h -> %.1f h)\n",
		100*rep.Coverage, 100*rep.SavingVs(baseline), baseline.BatteryHours, rep.BatteryHours)
}
