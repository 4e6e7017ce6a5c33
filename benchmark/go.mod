module github.com/netverify/vmn/benchmark

go 1.22

require github.com/netverify/vmn v0.0.0

replace github.com/netverify/vmn => ../
