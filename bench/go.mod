module ripplestudy/bench

go 1.22

require ripplestudy v0.0.0

replace ripplestudy => ../
