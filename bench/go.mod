module score/bench

go 1.22

require score v0.0.0

replace score => ../
