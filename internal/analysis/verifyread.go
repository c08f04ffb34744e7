package analysis

import (
	"go/ast"
	"go/types"
)

// VerifyRead proves the end-to-end integrity invariant of the
// controller's content fetch paths: a function that pulls raw block
// content off a device and can hand it onward (slotContent's SSD
// reference fetch, readHomeVerified's HDD home read) must check the
// bytes against a content checksum — contentCRC or
// blockdev.ContentCRC — before any success return. A fetch path that
// skips the verification reintroduces exactly the failure mode the
// integrity layer exists to kill: a lying device read flowing to the
// host as if it were good data.
//
// The check is a lexical approximation biased quiet: a return whose
// final result is nil inside an obligated function is flagged only when
// no checksum call appears anywhere earlier in the body. Error returns
// are exempt — a path that already fails loudly needs no verification.
var VerifyRead = &Analyzer{
	Name: "verifyread",
	Doc:  "device content fetch paths must checksum-verify bytes before returning success",
	Run:  runVerifyRead,
}

// verifyReadFuncs names the obligated fetch paths per package: the two
// layer crossings where raw device bytes enter the controller.
var verifyReadFuncs = map[string]map[string]bool{
	"icash/internal/core": {"slotContent": true, "readHomeVerified": true},
}

// verifyCalls are the checksum entry points that count as verifying:
// the controller's contentCRC and the underlying blockdev.ContentCRC.
var verifyCalls = map[string]bool{
	"contentCRC": true,
	"ContentCRC": true,
}

func runVerifyRead(pass *Pass) {
	named := verifyReadFuncs[pass.Pkg.Path()]
	if named == nil {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !named[fd.Name.Name] {
				continue
			}
			if !lastResultIsError(pass, fd) {
				continue
			}
			checkVerifyRead(pass, fd)
		}
	}
}

// lastResultIsError reports whether fd's final result is the error
// interface — the success/failure discriminator the check keys on.
func lastResultIsError(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	res := obj.Type().(*types.Signature).Results()
	return res.Len() >= 1 && isErrorType(res.At(res.Len()-1).Type())
}

// checkVerifyRead flags success returns not preceded by a checksum
// call. Function literals are not descended into: their returns belong
// to the closure, not to the fetch path.
func checkVerifyRead(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		if !isNilExpr(pass.Info, ret.Results[len(ret.Results)-1]) {
			return true // error path: already failing loudly
		}
		if !verifiedBefore(pass, fd, ret) {
			pass.Reportf(ret.Pos(),
				"%s returns fetched content without checksum verification: check contentCRC/blockdev.ContentCRC before this return", fd.Name.Name)
		}
		return true
	})
}

// verifiedBefore reports whether a checksum call appears lexically
// before ret inside fd's body.
func verifiedBefore(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	verified := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if verified || n == nil || n.Pos() >= ret.Pos() {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.Info, call); fn != nil && verifyCalls[fn.Name()] {
				verified = true
				return false
			}
		}
		return true
	})
	return verified
}
