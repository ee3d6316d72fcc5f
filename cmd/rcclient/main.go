// Command rcclient is the receiving-client CLI: it logs in to the MWS
// Gatekeeper, retrieves pending messages, obtains the per-message private
// keys from the PKG via the ticket/token flow, and prints the decrypted
// payloads.
//
// Generate a keypair (once) and register with mwsd:
//
//	rcclient keygen -rsa-key rc.key -pubkey rc.pem
//	mwsd -dir ... -password-file pw.txt -pubkey rc.pem register-client c-services
//
// Retrieve:
//
//	rcclient -id c-services -password-file pw.txt -rsa-key rc.key \
//	         -mws 127.0.0.1:7701 -pkg 127.0.0.1:7702 [-from 17]
package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mwskit/internal/device"
	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rcclient: ")
	id := flag.String("id", "", "client identity")
	passwordFile := flag.String("password-file", "", "file holding the client password")
	rsaKeyFile := flag.String("rsa-key", "rc.key", "PEM file with the client's RSA private key")
	pubKeyFile := flag.String("pubkey", "rc.pem", "output PEM for keygen")
	mwsAddr := flag.String("mws", "127.0.0.1:7701", "MWS address")
	pkgAddr := flag.String("pkg", "127.0.0.1:7702", "PKG address")
	from := flag.Uint64("from", 0, "inclusive sequence cursor")
	limit := flag.Uint("limit", 0, "maximum messages to fetch (0 = all)")
	search := flag.String("search", "", "keyword: fetch only messages tagged with this keyword (searchable encryption)")
	bits := flag.Int("bits", 2048, "RSA key size for keygen")
	trace := flag.Bool("trace", false, "negotiate wire tracing and stamp the retrieval with a trace ID (query it back via the servers' TTrace or /traces)")
	flag.Parse()

	if flag.Arg(0) == "keygen" {
		if err := keygen(*rsaKeyFile, *pubKeyFile, *bits); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (private) and %s (public — hand to the MWS admin)\n", *rsaKeyFile, *pubKeyFile)
		return
	}

	if *id == "" || *passwordFile == "" {
		log.Fatal("-id and -password-file are required")
	}
	pw, err := os.ReadFile(*passwordFile)
	if err != nil {
		log.Fatal(err)
	}
	priv, err := readRSAPrivateKey(*rsaKeyFile)
	if err != nil {
		log.Fatal(err)
	}

	pkgConn, err := wire.Dial(*pkgAddr)
	if err != nil {
		log.Fatalf("dial PKG: %v", err)
	}
	defer pkgConn.Close()
	params, err := device.FetchParams(pkgConn)
	if err != nil {
		log.Fatalf("fetch parameters: %v", err)
	}
	rc, err := rclient.New(*id, []byte(strings.TrimSpace(string(pw))), priv, params)
	if err != nil {
		log.Fatal(err)
	}
	mwsConn, err := wire.Dial(*mwsAddr)
	if err != nil {
		log.Fatalf("dial MWS: %v", err)
	}
	defer mwsConn.Close()

	// With -trace, the whole retrieval (MWS retrieve, PKG extract, local
	// decrypt) runs under one client-generated root span; both servers'
	// stage spans stitch to its trace ID.
	ctx := context.Background()
	var root *obsv.Span
	if *trace {
		for _, c := range []*wire.Client{mwsConn, pkgConn} {
			if _, err := c.EnableTrace(ctx); err != nil {
				log.Fatalf("trace negotiation: %v", err)
			}
		}
		tracer := obsv.NewTracer("rcclient", 64, 0, nil)
		ctx, root = tracer.StartRoot(ctx, "rcclient.retrieve")
	}

	var msgs []*rclient.Message
	if *search != "" {
		boot, err := rc.RetrieveContext(ctx, mwsConn, *from, 1)
		if err != nil {
			log.Fatalf("retrieve: %v", err)
		}
		trapdoor, err := rc.FetchTrapdoor(pkgConn, boot, *search)
		if err != nil {
			log.Fatalf("trapdoor: %v", err)
		}
		hits, err := rc.Search(mwsConn, trapdoor, *from, uint32(*limit))
		if err != nil {
			log.Fatalf("search: %v", err)
		}
		keys, _, err := rc.FetchKeysContext(ctx, pkgConn, hits)
		if err != nil {
			log.Fatalf("keys: %v", err)
		}
		for i := range hits.Items {
			for _, sk := range keys {
				if m, err := rc.Decrypt(&hits.Items[i], sk); err == nil {
					msgs = append(msgs, m)
					break
				}
			}
		}
	} else {
		msgs, err = rc.RetrieveAndDecryptContext(ctx, mwsConn, pkgConn, *from, uint32(*limit))
		if err != nil {
			log.Fatalf("retrieve: %v", err)
		}
	}
	root.End()
	if root != nil {
		defer fmt.Printf("trace id %d\n", root.Context().TraceID)
	}
	if len(msgs) == 0 {
		fmt.Println("no messages")
		return
	}
	for _, m := range msgs {
		fmt.Printf("#%d  %s  %s  %s\n", m.Seq, time.Unix(m.Timestamp, 0).UTC().Format(time.RFC3339), m.DeviceID, m.Payload)
	}
}

func keygen(privPath, pubPath string, bits int) error {
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return err
	}
	privDER, err := x509.MarshalPKCS8PrivateKey(priv)
	if err != nil {
		return err
	}
	privPEM := pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: privDER})
	if err := os.WriteFile(privPath, privPEM, 0o600); err != nil {
		return err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		return err
	}
	pubPEM := pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: pubDER})
	return os.WriteFile(pubPath, pubPEM, 0o644)
}

func readRSAPrivateKey(path string) (*rsa.PrivateKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		return nil, fmt.Errorf("rcclient: %s: not PEM", path)
	}
	parsed, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, err
	}
	priv, ok := parsed.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("rcclient: %s: not an RSA key", path)
	}
	return priv, nil
}
