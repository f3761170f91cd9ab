//go:build amd64

package tensor

// run calls f with the detection flags set to the level's, then restores
// the host's.
func (l kernelLevel) run(f func()) {
	hostSIMD, hostAVX512 := haveSIMD, haveAVX512
	haveSIMD, haveAVX512 = l.simd, l.avx512
	defer func() { haveSIMD, haveAVX512 = hostSIMD, hostAVX512 }()
	f()
}
