module shardstore/bench

go 1.22

require shardstore v0.0.0

replace shardstore => ../
