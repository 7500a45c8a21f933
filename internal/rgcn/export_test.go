package rgcn

// PlanArrays exposes direction d's CSR arrays of an adjacency to
// the external golden test, which imports the corpus (and so cannot live
// in this package: kernels imports rgcn).
func PlanArrays(a *Adjacency, d int) (dstPtr, dstSrc, srcPtr, srcDst []int32) {
	p := &a.plans[d]
	return p.dstPtr, p.dstSrc, p.srcPtr, p.srcDst
}
