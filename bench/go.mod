module github.com/ict-repro/mpid/bench

go 1.22

require github.com/ict-repro/mpid v0.0.0

replace github.com/ict-repro/mpid => ../
