package main

import (
	"context"
	"strings"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
)

func TestBuildConnLocal(t *testing.T) {
	for _, name := range []string{"vehicles", "bool-iid", "bool-corr"} {
		conn, err := buildConn("", name, 200, 50, "exact", 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		schema, err := conn.Schema(context.Background())
		if err != nil || schema.NumAttrs() == 0 {
			t.Fatalf("%s: schema %v %v", name, schema, err)
		}
	}
	if _, err := buildConn("", "", 200, 50, "exact", 1); err == nil {
		t.Error("missing -url and -local accepted")
	}
	if _, err := buildConn("", "mystery", 200, 50, "exact", 1); err == nil {
		t.Error("unknown local dataset accepted")
	}
	if _, err := buildConn("", "vehicles", 200, 50, "sometimes", 1); err == nil {
		t.Error("unknown count mode accepted")
	}
}

// TestBuildConnURLModes: -url always scrapes the site's HTML form, with
// or without -local beside it.
func TestBuildConnURLModes(t *testing.T) {
	for _, local := range []string{"", "vehicles"} {
		conn, err := buildConn("http://example.invalid", local, 200, 50, "exact", 1)
		if err != nil {
			t.Fatalf("-local %q: %v", local, err)
		}
		if _, ok := conn.(*formclient.HTTP); !ok {
			t.Fatalf("-local %q: -url built a %T, want the HTML connector", local, conn)
		}
	}
}

func TestParseAttrs(t *testing.T) {
	schema := datagen.VehiclesSchema()
	got, err := parseAttrs(schema, "make, color ,doors")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{datagen.VehAttrMake, datagen.VehAttrColor, datagen.VehAttrDoors}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("parseAttrs = %v, want %v", got, want)
	}
	if _, err := parseAttrs(schema, "warp-drive"); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Fatalf("unknown attribute: %v", err)
	}
	if got, err := parseAttrs(schema, ""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
}

func TestPrintAggregatesValidation(t *testing.T) {
	schema := datagen.VehiclesSchema()
	ds := datagen.Vehicles(50, 1)
	samples := ds.Tuples
	if err := printAggregates(schema, samples, "make=toyota", "price"); err != nil {
		t.Fatalf("valid aggregate failed: %v", err)
	}
	for _, bad := range []struct{ where, attr string }{
		{"noequals", ""},
		{"warp=1", ""},
		{"make=delorean", ""},
		{"make=toyota", "warp"},
	} {
		if err := printAggregates(schema, samples, bad.where, bad.attr); err == nil {
			t.Errorf("printAggregates(%q,%q) accepted", bad.where, bad.attr)
		}
	}
}
