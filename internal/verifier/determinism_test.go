package verifier_test

import (
	"reflect"
	"testing"

	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/kie"
	"kflex/internal/verifier"
)

// TestAnalysisDeterministic: what the verifier hands Kie — and an operator,
// through kfasm — is a function of the program and the Config alone. The
// object table of a point holding two sockets has its rows by acquisition
// site and each row's locations registers first, then stack slots by offset,
// on every run; and when one instruction loses two references, the error
// names the same one every time. (With the state's references, spills and
// tables in Go maps, 40 runs gave 8 different tables.)
func TestAnalysisDeterministic(t *testing.T) {
	cfg := verifier.Config{Mode: verifier.ModeKFlex, Hook: kernel.HookXDP, Kernel: kernel.New(), HeapSize: 1 << 16}
	reg := func(r insn.Reg) verifier.ObjLocation { return verifier.ObjLocation{InReg: true, Reg: r} }
	slot := func(off int16) verifier.ObjLocation { return verifier.ObjLocation{StackOff: off} }
	want := []verifier.ObjTableEntry{
		{Site: 9, Kind: "sock", Destructor: "bpf_sk_release", Locs: []verifier.ObjLocation{reg(insn.R6), slot(-32), slot(-24)}},
		{Site: 20, Kind: "sock", Destructor: "bpf_sk_release", Locs: []verifier.ObjLocation{reg(insn.R7), slot(-56), slot(-48), slot(-40)}},
	}
	var first *verifier.Analysis
	var firstCPs []kie.CP
	for run := 0; run < 50; run++ {
		an, err := verifier.Verify(verifier.TwoSocketProgram(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := kie.Instrument(an)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first, firstCPs = an, rep.CPs
			if got := an.ObjTables[27]; !reflect.DeepEqual(got, want) {
				t.Fatalf("object table at insn 27:\n got %+v\nwant %+v", got, want)
			}
			continue
		}
		if !reflect.DeepEqual(an.ObjTables, first.ObjTables) {
			t.Fatalf("run %d: ObjTables differ from run 0:\n got %+v\nwant %+v", run, an.ObjTables, first.ObjTables)
		}
		if !reflect.DeepEqual(rep.CPs, firstCPs) {
			t.Fatalf("run %d: Report.CPs differ from run 0", run)
		}
	}

	// One call loses both references: the error names the earlier acquisition.
	lost := verifier.TwoLostRefsProgram()
	const wantErr = "verifier: insn 24: last copy of sock reference (acquired at insn 9) was lost"
	for run := 0; run < 50; run++ {
		if _, err := verifier.Verify(lost, cfg); err == nil || err.Error() != wantErr {
			t.Fatalf("run %d: err = %v, want %q", run, err, wantErr)
		}
	}
}
